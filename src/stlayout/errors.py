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
    """The successor lists do not describe a planar embedding (Euler check
    or frontier contiguity fails)."""


class ParallelEdge(StGraphError):
    pass


class StNotOnOuterFace(StGraphError):
    pass


class FaceWithMultipleSinks(StGraphError):
    """An inner face has more than one source or sink, so the embedding is
    not that of a planar st-graph."""


class EdgeNotFound(StGraphError):
    pass


class TooLarge(StGraphError):
    """A brute-force oracle was asked to process an instance beyond its
    configured size bound."""


class OrderingInvalid(StGraphError):
    pass


class NonIntegerCoordinate(StGraphError):
    """The parity invariant of the placement formulas was violated.  This
    signals an implementation bug, not bad input."""


class MissingCoordinate(StGraphError):
    pass


class GraphFormatError(StGraphError):
    """Malformed graph/drawing file."""
