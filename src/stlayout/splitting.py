"""Minimum edge splitting to enable a bitonic st-ordering.

For each vertex independently, the row scan of :mod:`stlayout.ordering`
picks the apex that minimizes the conflicting paths (those directed away
from it) and splits each conflicting out-edge by one dummy vertex.
Splitting never changes reachability between original vertices, so the
per-vertex choices are globally optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import lt

from .errors import EdgeNotFound
from .graph import EmbeddedStGraph, _gather
from .ordering import _row_scan


@dataclass(frozen=True)
class SplitPlan:
    """Chosen apex per vertex and the edges to split.

    ``apex[u]`` is the 1-based successor position of the apex of ``S(u)``
    that :func:`minimum_split_plan` chose (0 for vertices without
    successors); :func:`transitive_split_plan` picks no apex, so its
    ``apex`` is all 0.  ``split_edges`` holds the ids of the edges to
    split, in increasing order, as a tuple whatever sequence was given.
    """

    apex: tuple[int, ...]
    split_edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "split_edges", tuple(self.split_edges))


def minimum_split_plan(g: EmbeddedStGraph) -> SplitPlan:
    """Smallest set of edges whose splitting admits a bitonic st-ordering.

    Per row, the scan puts the apex at the first minimum of descents less
    rises and splits the out-edges whose paths run away from it."""
    _, apex, split, _, _ = _row_scan(g)
    return SplitPlan(apex=tuple(apex), split_edges=split)


def transitive_split_plan(g: EmbeddedStGraph) -> SplitPlan:
    """Baseline: split every transitive edge (reduced-graph strategy).

    An out-edge is transitive iff one of its neighbouring consecutive
    successors has a path into its head; bounded by 2n-5 splits.  The
    corner after the last out-edge of a tail always has direction 0, so
    ``corner_dir[e - 1]`` is 0 for a first out-edge ``e``.
    """
    corner_dir = g.corner_dir
    split = tuple(e for e in range(g.m)
                  if corner_dir[e - 1] > 0 or corner_dir[e] < 0)
    return SplitPlan(apex=tuple([0] * g.n), split_edges=split)


def apply_splits(g: EmbeddedStGraph, plan: SplitPlan) -> EmbeddedStGraph:
    """Replace each planned edge (u,v) by (u,d),(d,v) with a fresh dummy.

    A split is a subdivision, so the embedding carries over and the split
    graph extends the arrays of ``g``.  The ``i``-th split edge keeps its
    id and ends at ``d = g.n + i``; the new edge ``(d, v)`` gets id
    ``g.m + i`` and takes the split edge's place as the first or last
    in-edge of ``v``, where the split edge was one.  An empty plan returns
    ``g`` itself.
    """
    split = plan.split_edges
    if not split:
        return g
    ids = [-1, *split, g.m]
    if not all(map(lt, ids, ids[1:])):
        raise EdgeNotFound(f"split edge ids must increase strictly and "
                           f"lie in 0..{g.m - 1}")

    n, m, k = g.n, g.m, len(split)
    heads = _gather(g.head, split)
    head, corner_dir = list(g.head), list(g.corner_dir)
    for i, e in enumerate(split):
        head[e] = n + i
        # e is d's first and last in-edge, so no corner beside e has sink
        # d; at e = 0, index -1 is the last edge's corner, which is always 0
        corner_dir[e - 1] = min(corner_dir[e - 1], 0)
        corner_dir[e] = max(corner_dir[e], 0)
    lower = dict(zip(split, range(m, m + k)))  # split edge -> (d, v)
    one_each = tuple(range(m + 1, m + k + 1))  # a dummy has one edge each way
    return replace(
        g, n=n + k, tail=g.tail + tuple(range(n, n + k)),
        head=tuple(head) + heads, out_start=g.out_start + one_each,
        first_in=tuple(map(lower.get, g.first_in, g.first_in)) + split,
        last_in=tuple(map(lower.get, g.last_in, g.last_in)) + split,
        corner_dir=tuple(corner_dir) + (0,) * k)


def plan_to_text(g: EmbeddedStGraph, plan: SplitPlan) -> str:
    lines = [f"split {g.tail[e]} {g.head[e]}" for e in plan.split_edges]
    lines.append(f"total {len(plan.split_edges)}")
    return "\n".join(lines) + "\n"
