"""Minimum edge splitting to enable a bitonic st-ordering.

For each vertex independently, an apex position is chosen among its
successors so that the number of conflicting paths (those directed away
from the apex) is minimized; the conflicting out-edges are then split by
inserting one dummy vertex each.  Splitting never changes reachability
between original vertices, so the per-vertex choices are globally optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EdgeNotFound
from .graph import EmbeddedStGraph, compute_faces


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

    A split is a subdivision, so the embedding and the faces carry over and
    the split graph extends the arrays of ``g``.  The ``i``-th split edge,
    in id order, keeps its id and ends at ``d = g.n + i``; the new edge
    ``(d, v)`` gets id ``g.m + i``, the split edge's place in the in-order
    of ``v`` and its two faces.  An empty plan returns ``g`` itself.
    """
    if not plan.split_edges:
        return SplitResult(graph=g, dummy_of={})
    planned = set(plan.split_edges)
    split = [e for e, uv in enumerate(zip(g.tail, g.head)) if uv in planned]
    if len(split) != len(planned):
        found = {(g.tail[e], g.head[e]) for e in split}
        u, v = next(uv for uv in plan.split_edges if uv not in found)
        raise EdgeNotFound(f"({u}, {v}) is not an edge")

    n, m, k = g.n, g.m, len(split)
    fi = compute_faces(g)
    heads = [g.head[e] for e in split]
    head, corner_dir = list(g.head), list(fi.corner_dir)
    darts = list(fi.face_of_dart)
    for i, e in enumerate(split):
        head[e] = n + i
        # only u reaches d, so no corner path next to e runs into it; at
        # e = 0, index -1 is the last edge's corner, which is always 0
        corner_dir[e - 1] = min(corner_dir[e - 1], 0)
        corner_dir[e] = max(corner_dir[e], 0)
        darts += darts[2 * e:2 * e + 2]
    succ = list(g.succ)
    for u in dict.fromkeys(g.tail[e] for e in split):
        succ[u] = tuple(head[e] for e in g.out_edge_ids[u])
    lower = dict(zip(split, range(m, m + k)))  # split edge -> (d, v)
    in_ltr = list(g.in_edge_ids_ltr)
    for v in dict.fromkeys(heads):
        in_ltr[v] = tuple(lower.get(e, e) for e in in_ltr[v])
    graph = replace(
        g, n=n + k, succ=tuple(succ) + tuple((v,) for v in heads),
        tail=g.tail + tuple(range(n, n + k)), head=tuple(head + heads),
        out_edge_ids=g.out_edge_ids + tuple((f,) for f in range(m, m + k)),
        in_edge_ids_ltr=tuple(in_ltr) + tuple((e,) for e in split),
        _face_index=replace(fi, corner_face=fi.corner_face + (-1,) * k,
                            corner_dir=tuple(corner_dir) + (0,) * k,
                            face_of_dart=tuple(darts)))
    dummy_of = {n + i: (g.tail[e], g.head[e]) for i, e in enumerate(split)}
    return SplitResult(graph=graph, dummy_of=dummy_of)


def plan_to_text(plan: SplitPlan) -> str:
    lines = [f"split {u} {v}" for u, v in plan.split_edges]
    lines.append(f"total {len(plan.split_edges)}")
    return "\n".join(lines) + "\n"
