"""Minimum edge splitting to enable a bitonic st-ordering.

For each vertex independently, an apex position is chosen among its
successors so that the number of conflicting paths (those directed away
from the apex) is minimized; the conflicting out-edges are then split by
inserting one dummy vertex each.  Splitting never changes reachability
between original vertices, so the per-vertex choices are globally optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EdgeNotFound
from .graph import EmbeddedStGraph, build_graph, compute_faces


@dataclass(frozen=True)
class SplitPlan:
    """Chosen apex per vertex and the edges to split.

    ``apex[u]`` is the 1-based successor position of the apex of ``S(u)``
    (0 for vertices without successors).  ``split_edges`` is ordered by
    tail vertex id, then successor position.
    """

    apex: tuple[int, ...]
    split_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SplitResult:
    """Graph with dummy vertices substituted for the split edges."""

    graph: EmbeddedStGraph
    dummy_of: dict[int, tuple[int, int]]
    origin: EmbeddedStGraph


def _corner_dirs(g: EmbeddedStGraph, u: int) -> tuple[int, ...]:
    """Path directions between the consecutive successors of ``u``."""
    ids = g.out_edge_ids[u]
    return compute_faces(g).corner_dir[ids[0]:ids[-1]] if ids else ()


def left_right_counts(g: EmbeddedStGraph, u: int):
    """Prefix path counts over the successor list of ``u``.

    Returns ``(L, R)`` with ``L[h-1]`` = number of right-to-left paths and
    ``R[h-1]`` = number of left-to-right paths between consecutive
    successors strictly before position ``h`` (``h`` in ``1..m``).
    """
    m = len(g.succ[u])
    L, R = [0] * m, [0] * m
    for i, d in enumerate(_corner_dirs(g, u), 1):
        L[i] = L[i - 1] + (d < 0)
        R[i] = R[i - 1] + (d > 0)
    return L, R


def minimum_split_plan(g: EmbeddedStGraph) -> SplitPlan:
    """Smallest set of edges whose splitting admits a bitonic st-ordering.

    Per vertex, a running counter over the consecutive-successor path
    directions picks the apex (first position achieving the minimum), then
    the out-edges conflicting with that apex are collected.
    """
    apex = [0] * g.n
    split: list[tuple[int, int]] = []
    for u in range(g.n):
        row = g.succ[u]
        if not row:
            continue
        dirs = _corner_dirs(g, u)
        # the counter rises on right-to-left paths, falls on left-to-right
        h = 1
        c = c_min = 0
        for i, d in enumerate(dirs, 2):
            c -= d
            if c < c_min:
                c_min = c
                h = i
        apex[u] = h
        for i in range(1, h):
            if dirs[i - 1] < 0:
                split.append((u, row[i - 1]))
        for i in range(h, len(row)):
            if dirs[i - 1] > 0:
                split.append((u, row[i]))
    return SplitPlan(apex=tuple(apex), split_edges=tuple(split))


def transitive_split_plan(g: EmbeddedStGraph) -> SplitPlan:
    """Baseline: split every transitive edge (reduced-graph strategy).

    An out-edge is transitive iff one of its neighbouring consecutive
    successors has a path into its head; bounded by 2n-5 splits.
    """
    split = []
    for u in range(g.n):
        row = g.succ[u]
        dirs = _corner_dirs(g, u)
        for i, v in enumerate(row):
            left = i > 0 and dirs[i - 1] > 0
            right = i < len(row) - 1 and dirs[i] < 0
            if left or right:
                split.append((u, v))
    return SplitPlan(apex=tuple([0] * g.n), split_edges=tuple(split))


def apply_splits(g: EmbeddedStGraph, plan: SplitPlan) -> SplitResult:
    """Replace each planned edge (u,v) by (u,d),(d,v) with a fresh dummy.

    The dummy takes the split edge's position in the rotation at both
    endpoints, so the embedding carries over unchanged.  Dummies are
    numbered from ``g.n`` up in the order of (tail, successor position).
    """
    planned = set(plan.split_edges)
    rows = [list(r) for r in g.succ]
    dummy_of: dict[int, tuple[int, int]] = {}
    for u, row in enumerate(rows):
        for pos, v in enumerate(row):
            if (u, v) in planned:
                d = g.n + len(dummy_of)
                row[pos] = d
                dummy_of[d] = (u, v)
    if len(dummy_of) != len(planned):
        found = set(dummy_of.values())
        u, v = next(uv for uv in plan.split_edges if uv not in found)
        raise EdgeNotFound(f"({u}, {v}) is not an edge")
    rows += [[v] for _, v in dummy_of.values()]
    graph = build_graph(len(rows), g.s, g.t, rows)
    return SplitResult(graph=graph, dummy_of=dummy_of, origin=g)


def plan_to_text(plan: SplitPlan) -> str:
    lines = [f"split {u} {v}" for u, v in plan.split_edges]
    lines.append(f"total {len(plan.split_edges)}")
    return "\n".join(lines) + "\n"


def split_result_to_text(res: SplitResult) -> str:
    from .io import graph_to_text
    lines = [graph_to_text(res.graph).rstrip("\n")]
    for d in sorted(res.dummy_of):
        u, v = res.dummy_of[d]
        lines.append(f"dummy {d} {u} {v}")
    return "\n".join(lines) + "\n"
