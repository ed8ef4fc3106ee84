"""Upward planar grid drawings driven by a bitonic st-ordering.

Straight-line drawing: incremental contour construction with two sentinel
vertices that stay left- and rightmost on every contour, relative x-offsets
along the contour, and a shift tree resolved by two final accumulation
passes.  Poly-line drawing: one scan of the graph plans the splits and
orients the split graph's gap edges, and the split graph is drawn
straight-line; each dummy vertex is one bend.  A drawing is a node
table, two coordinate columns over the vertices and then one bend per
bent edge, nothing per straight edge, so the split graph's drawing is
the poly-line drawing as it is; every other view of it is derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat, starmap
from operator import lt, sub

from .errors import OrderingInvalid
from .graph import (EmbeddedStGraph, _gather, _gc_paused,
                    _topological_order)
from .ordering import BitonicOrdering, _edge_ranks, _row_scan
from .splitting import SplitPlan, apply_splits

Point = tuple[int, int]


@dataclass(frozen=True)
class GridDrawing:
    """Integer coordinates of an upward planar grid drawing, as a node table.

    ``x[v]`` and ``y[v]`` are the point of node ``v``.  Nodes ``0..n-1``
    are the vertices; node ``n + i`` is the one bend of edge ``bent[i]``,
    whose ids increase strictly, so ``n = len(x) - len(bent)``.  This is
    the numbering of the split graph: a poly-line drawing is the
    straight-line drawing of the split graph, its columns shared, with
    each dummy read as the bend of its split edge.  ``tail`` and ``head``
    are the drawn graph's own edge arrays, shared with it, not copied.
    Each edge's path, the vertex points, the bends, the split edges and
    the box are derived on first use.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    tail: tuple[int, ...]
    head: tuple[int, ...]
    bent: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bent", tuple(self.bent))
        if len(self.x) != len(self.y):
            raise ValueError(f"drawing has {len(self.x)} x and "
                             f"{len(self.y)} y coordinates")
        ids = [-1, *self.bent, len(self.tail)]
        if not all(map(lt, ids, ids[1:])):
            raise ValueError(f"bend edge ids must increase strictly and "
                             f"lie in 0..{len(self.tail) - 1}")
        if len(self.x) < len(self.bent):
            raise ValueError(f"drawing has more bends ({len(self.bent)}) "
                             f"than points ({len(self.x)})")

    @cached_property
    def coords(self) -> tuple[Point, ...]:
        """The point of each vertex."""
        n = len(self.x) - len(self.bent)
        return tuple(zip(self.x[:n], self.y[:n]))

    @cached_property
    def bends(self) -> list[Point]:
        """The point of each bend, in :attr:`bent` order."""
        n = len(self.x) - len(self.bent)
        return list(zip(self.x[n:], self.y[n:]))

    @cached_property
    def bend_points(self) -> tuple[tuple[int, Point], ...]:
        """``(e, p)`` for each bent edge ``e`` and its bend ``p``."""
        return tuple(zip(self.bent, self.bends))

    @cached_property
    def edge_paths(self) -> tuple[tuple[Point, ...], ...]:
        """Each edge's path: tail point, bend if it has one, head point."""
        coords = self.coords
        paths = list(zip(_gather(coords, self.tail),
                         _gather(coords, self.head)))
        for e, p in zip(self.bent, self.bends):
            paths[e] = paths[e][0], p, paths[e][1]
        return tuple(paths)

    @cached_property
    def splits(self) -> tuple[tuple[int, int], ...]:
        """``(u, v)`` of each bent edge, in edge id order."""
        return tuple(zip(_gather(self.tail, self.bent),
                         _gather(self.head, self.bent)))

    @cached_property
    def width(self) -> int:
        return max(self.x) - min(self.x) if self.x else 0

    @cached_property
    def height(self) -> int:
        return max(self.y) - min(self.y) if self.y else 0


def _mismatch(d: GridDrawing, g: EmbeddedStGraph) -> str | None:
    """Why ``d`` is not a drawing of ``g`` (a point per vertex and ``g``'s
    edges, the same tuples or else equal ones), or None."""
    if (n := len(d.x) - len(d.bent)) != g.n:
        return f"drawing has {n} coordinates for {g.n} vertices"
    if not ((d.tail is g.tail or d.tail == g.tail)
            and (d.head is g.head or d.head == g.head)):
        return "drawing is of another graph: its edges differ"


@_gc_paused
def draw_straightline(g: EmbeddedStGraph,
                      ord: BitonicOrdering) -> GridDrawing:
    """Run the contour shifting method for a verified bitonic ordering."""
    if (ranks := _edge_ranks(g, ord)) is None:
        raise OrderingInvalid("not a bitonic st-ordering for this graph")
    tail_rank, head_rank = ranks

    n = g.n
    pi, order = ord.pi, ord.order

    # the contour works on ranks, not vertex ids: ranks 1..n, with the two
    # sentinels at 0 (left) and n + 1 (right).  Contour neighbours are
    # placed close together in time, so these arrays are read close
    # together in memory, however the graph numbers its vertices.  Every
    # per-vertex and per-edge fact the loop reads is first gathered into
    # rank or edge order, the ranks of the edges' ends by the check.  No
    # vertex has rank 0, so the 0 after tail_rank ends a row both after
    # edge m - 1 and, read at index -1, before edge 0; head_rank[first ± 1]
    # is read only once tail_rank[first ± 1] has matched.
    firsts = _gather(g.first_in, order)
    wls = _gather(tail_rank, firsts)
    wrs = _gather(tail_rank, _gather(g.last_in, order))
    VL, VR = 0, n + 1

    xoff = [0] * (n + 2)
    yabs = [0] * (n + 2)
    nxt = [-1] * (n + 2)
    prv = [-1] * (n + 2)
    parent = [-1] * (n + 2)

    xoff[1], yabs[1] = 1, 1
    xoff[VR] = 1
    nxt[VL], nxt[1], prv[1], prv[VR] = 1, VR, VL, 1

    for k in range(2, n + 1):
        wl = wls[k - 1]
        wr = wrs[k - 1]
        if wl == wr:
            # k's one in-edge is from w.  Its row is verified bitonic, so
            # on one side at least, k ends the row or has a placed neighbour
            first = firsts[k - 1]
            if tail_rank[first - 1] != wl or head_rank[first - 1] <= k:
                wl = prv[wl]
            if tail_rank[first + 1] != wr or head_rank[first + 1] <= k:
                wr = nxt[wr]

        # walk the run strictly between wl and wr twice: once to sum its
        # offsets, once to make them relative to k
        d = 0
        node = nxt[wl]
        while node != wr:
            d += xoff[node]
            node = nxt[node]
        d += xoff[wr] + 2

        # x + y is even at every contour vertex, so both halves are exact
        x_k = (d + yabs[wr] - yabs[wl]) // 2
        yabs[k] = (d + yabs[wr] + yabs[wl]) // 2

        acc = 1 - x_k
        node = nxt[wl]
        while node != wr:
            parent[node] = k
            acc += xoff[node]
            xoff[node] = acc
            node = nxt[node]
        xoff[k] = x_k
        xoff[wr] = d - x_k
        nxt[wl], prv[k] = k, wl
        nxt[k], prv[wr] = wr, k

    # resolve offsets: along the final contour, then down the shift tree
    xabs = [0] * (n + 2)
    node = VL
    run = 0
    while node != -1:
        run += xoff[node]
        xabs[node] = run
        node = nxt[node]
    for k in range(n, 0, -1):
        if parent[k] != -1:
            xabs[k] = xoff[k] + xabs[parent[k]]

    # each vertex picks its rank's column entries; slot 0 is the left
    # sentinel's, which no vertex picks
    dx, dy = min(xabs[1:n + 1]), min(yabs[1:n + 1])
    xs = list(map(sub, xabs, repeat(dx, n + 1)))
    ys = list(map(sub, yabs, repeat(dy, n + 1)))
    return GridDrawing(x=_gather(xs, pi), y=_gather(ys, pi), tail=g.tail,
                       head=g.head)


@_gc_paused
def draw_polyline(g: EmbeddedStGraph) -> GridDrawing:
    """Scan ``g`` once, split the planned edges and draw the split graph.

    The split graph is ordered by the scan's gap edges, never recognized,
    and drawn from the order alone.  Dummy ``g.n + i`` ends the ``i``-th
    split edge, and node ``g.n + i`` of a drawing is its ``i``-th bend."""
    _, apex, split, extra = _row_scan(g)[:4]  # aug, unread, is freed
    h = apply_splits(g, SplitPlan(tuple(apex), split)) if split else g
    order = _topological_order(h.out_start, h.head, extra)
    del apex, extra  # freed before the contour runs
    d = draw_straightline(h, BitonicOrdering(order, ()))
    return d if h is g else GridDrawing(d.x, d.y, g.tail, g.head, split)


def emit_svg(d: GridDrawing, scale: int = 20) -> str:
    """Deterministic SVG: circles for vertices, squares for bends.

    The drawing's box is moved to the origin and the y axis is flipped so
    ranks grow upward on screen.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    pad = scale
    h = d.height * scale + 2 * pad
    x0, y0 = min(d.x, default=0), min(d.y, default=0)

    def pt(x: int, y: int) -> tuple[int, int]:
        return (x - x0) * scale + pad, h - ((y - y0) * scale + pad)

    lines = []
    w = d.width * scale + 2 * pad
    lines.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">')
    r = max(2, scale // 5)
    for path in d.edge_paths:
        pts = " ".join(f"{x},{y}" for x, y in starmap(pt, path))
        lines.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="black" stroke-width="1"/>')
    n = len(d.x) - len(d.bent)
    for x, y in map(pt, d.x[n:], d.y[n:]):
        lines.append(f'<rect x="{x - r}" y="{y - r}" width="{2 * r}" '
                     f'height="{2 * r}" fill="white" stroke="black"/>')
    for x, y in map(pt, d.x[:n], d.y[:n]):
        lines.append(f'<circle cx="{x}" cy="{y}" r="{r}" '
                     f'fill="white" stroke="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
