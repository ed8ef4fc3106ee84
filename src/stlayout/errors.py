"""Exception hierarchy for invalid inputs.

Every validation failure names the violated invariant, so callers (and the
CLI) can report precisely what is wrong with an input graph.
"""


class StGraphError(Exception):
    """Base class for all graph validation errors."""


class NotAcyclic(StGraphError):
    pass


class MultipleSourcesOrSinks(StGraphError):
    pass


class NotPlanarEmbedding(StGraphError):
    """The successor lists do not describe a planar embedding: the incoming
    edges of some vertex are not contiguous on the sweep's frontier."""


class ParallelEdge(StGraphError):
    pass


class EdgeNotFound(StGraphError):
    pass


class OrderingInvalid(StGraphError):
    pass


class MissingCoordinate(StGraphError):
    pass


class GraphFormatError(StGraphError):
    """Malformed graph/drawing file."""
