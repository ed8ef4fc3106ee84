"""Upward planar grid drawings of embedded planar st-graphs.

The pipeline: recognize whether the embedding admits a bitonic
st-ordering, compute one (or a rejection witness), split a minimum set
of edges when it does not, and produce straight-line or poly-line
drawings on an integer grid, with an independent geometric validator.
"""

from .errors import (EdgeNotFound, GraphFormatError, MissingCoordinate,
                     MultipleSourcesOrSinks, NotAcyclic, NotPlanarEmbedding,
                     OrderingInvalid, ParallelEdge, StGraphError)
from .generate import GeneratorConfig, generate_random_st_graph
from .graph import EmbeddedStGraph, FaceIndex, build_graph, compute_faces
from .io import (drawing_from_text, drawing_to_text, graph_from_json,
                 graph_from_text, graph_to_json, graph_to_text, load_graph)
from .layout import (GridDrawing, draw_polyline, draw_straightline,
                     emit_svg)
from .ordering import (BitonicOrdering, RejectionWitness,
                       find_bitonic_ordering, verify_bitonic_ordering)
from .splitting import (SplitPlan, apply_splits, minimum_split_plan,
                        transitive_split_plan)
from .validate import ValidationReport, check_bounds, check_upward_planar

__all__ = [
    "BitonicOrdering",
    "EdgeNotFound",
    "EmbeddedStGraph",
    "FaceIndex",
    "GeneratorConfig",
    "GraphFormatError",
    "GridDrawing",
    "MissingCoordinate",
    "MultipleSourcesOrSinks",
    "NotAcyclic",
    "NotPlanarEmbedding",
    "OrderingInvalid",
    "ParallelEdge",
    "RejectionWitness",
    "SplitPlan",
    "StGraphError",
    "ValidationReport",
    "apply_splits",
    "build_graph",
    "check_bounds",
    "check_upward_planar",
    "compute_faces",
    "draw_polyline",
    "draw_straightline",
    "drawing_from_text",
    "drawing_to_text",
    "emit_svg",
    "find_bitonic_ordering",
    "generate_random_st_graph",
    "graph_from_json",
    "graph_from_text",
    "graph_to_json",
    "graph_to_text",
    "load_graph",
    "minimum_split_plan",
    "transitive_split_plan",
    "verify_bitonic_ordering",
]
