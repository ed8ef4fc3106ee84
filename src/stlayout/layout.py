"""Upward planar grid drawings driven by a bitonic st-ordering.

Straight-line drawing: incremental contour construction with two sentinel
vertices that stay left- and rightmost on every contour, relative x-offsets
along the contour, and a shift tree resolved by two final accumulation
passes.  Poly-line drawing: split conflicting edges first, draw the split
graph straight-line, then turn each dummy vertex into one bend.  A
drawing stores its vertex points and one bend per bent edge, nothing
per straight edge; every other view of it is derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, lt, sub

from .errors import OrderingInvalid
from .graph import EmbeddedStGraph, _gather, _gc_paused
from .ordering import (BitonicOrdering, RejectionWitness,
                       find_bitonic_ordering, verify_bitonic_ordering)
from .splitting import apply_splits, minimum_split_plan

Point = tuple[int, int]


@dataclass(frozen=True)
class GridDrawing:
    """Integer coordinates of an upward planar grid drawing.

    ``coords[v]`` is vertex ``v``'s point.  ``tail`` and ``head`` are the
    drawn graph's own edge arrays, shared with it, not copied.
    ``bend_points`` holds ``(e, p)`` for each bent edge ``e``, in strictly
    increasing ``e``: ``p`` is that edge's one bend.  A straight-line
    drawing has none; a poly-line drawing is the straight-line drawing of
    the split graph folded back onto the original edges, one bend per
    split edge.  Each edge's path, the split edges, the bends and the box
    (over vertices and bends alike) are derived on first use.
    """

    coords: tuple[Point, ...]
    tail: tuple[int, ...]
    head: tuple[int, ...]
    bend_points: tuple[tuple[int, Point], ...] = ()

    def __post_init__(self):
        ids = [-1, *map(itemgetter(0), self.bend_points), len(self.tail)]
        if not all(map(lt, ids, ids[1:])):
            raise ValueError(f"bend edge ids must increase strictly and "
                             f"lie in 0..{len(self.tail) - 1}")

    @cached_property
    def edge_paths(self) -> tuple[tuple[Point, ...], ...]:
        """Each edge's path: tail point, bend if it has one, head point."""
        paths = list(zip(_gather(self.coords, self.tail),
                         _gather(self.coords, self.head)))
        for e, p in self.bend_points:
            paths[e] = paths[e][0], p, paths[e][1]
        return tuple(paths)

    @cached_property
    def splits(self) -> tuple[tuple[int, int], ...]:
        """``(u, v)`` of each bent edge, in edge id order."""
        tail, head = self.tail, self.head
        return tuple((tail[e], head[e]) for e, _ in self.bend_points)

    @cached_property
    def bends(self) -> list[Point]:
        """The points of :attr:`bend_points`."""
        return list(map(itemgetter(1), self.bend_points))

    @cached_property
    def width(self) -> int:
        xs = list(map(itemgetter(0), chain(self.coords, self.bends)))
        return max(xs) - min(xs) if xs else 0

    @cached_property
    def height(self) -> int:
        ys = list(map(itemgetter(1), chain(self.coords, self.bends)))
        return max(ys) - min(ys) if ys else 0


def _mismatch(d: GridDrawing, g: EmbeddedStGraph) -> str | None:
    """Why ``d`` is not a drawing of ``g`` (a point per vertex and ``g``'s
    edges, the same tuples or else equal ones), or None."""
    if len(d.coords) != g.n:
        return f"drawing has {len(d.coords)} coordinates for {g.n} vertices"
    if not ((d.tail is g.tail or d.tail == g.tail)
            and (d.head is g.head or d.head == g.head)):
        return "drawing is of another graph: its edges differ"


@_gc_paused
def draw_straightline(g: EmbeddedStGraph,
                      ord: BitonicOrdering) -> GridDrawing:
    """Run the contour shifting method for a verified bitonic ordering."""
    if not verify_bitonic_ordering(g, ord):
        raise OrderingInvalid("not a bitonic st-ordering for this graph")

    n = g.n
    pi, order = ord.pi, ord.order
    VL, VR = n, n + 1

    xoff = [0] * (n + 2)
    yabs = [0] * (n + 2)
    nxt = [-1] * (n + 2)
    prv = [-1] * (n + 2)
    parent = [-1] * (n + 2)

    v1 = order[0]
    xoff[VL], yabs[VL] = 0, 0
    xoff[v1], yabs[v1] = 1, 1
    xoff[VR], yabs[VR] = 1, 0
    nxt[VL], nxt[v1], prv[v1], prv[VR] = v1, VR, VL, v1

    head, tail = g.head, g.tail
    out_start, in_edges, in_start = g.out_start, g.in_edges, g.in_start

    for k in range(2, n + 1):
        vk = order[k - 1]
        first = in_edges[in_start[vk]]
        wl = tail[first]
        wr = tail[in_edges[in_start[vk + 1] - 1]]
        if wl == wr:
            # vk's one in-edge is from w.  Its row is verified bitonic, so
            # on one side at least, vk ends the row or has a placed neighbour
            w = wl
            if first == out_start[w] or pi[head[first - 1]] <= k:
                wl = prv[w]
            if first == out_start[w + 1] - 1 or pi[head[first + 1]] <= k:
                wr = nxt[w]

        # walk the run strictly between wl and wr twice: once to sum its
        # offsets, once to make them relative to vk
        d = 0
        node = nxt[wl]
        while node != wr:
            d += xoff[node]
            node = nxt[node]
        d += xoff[wr] + 2

        # x + y is even at every contour vertex, so both halves are exact
        x_vk = (d + yabs[wr] - yabs[wl]) // 2
        yabs[vk] = (d + yabs[wr] + yabs[wl]) // 2

        acc = 1 - x_vk
        node = nxt[wl]
        while node != wr:
            parent[node] = vk
            acc += xoff[node]
            xoff[node] = acc
            node = nxt[node]
        xoff[vk] = x_vk
        xoff[wr] = d - x_vk
        nxt[wl], prv[vk] = vk, wl
        nxt[vk], prv[wr] = wr, vk

    # resolve offsets: along the final contour, then down the shift tree
    xabs = [0] * (n + 2)
    node = VL
    run = 0
    while node != -1:
        run += xoff[node]
        xabs[node] = run
        node = nxt[node]
    for k in range(n, 0, -1):
        vk = order[k - 1]
        if parent[vk] != -1:
            xabs[vk] = xoff[vk] + xabs[parent[vk]]

    xs, ys = xabs[:n], yabs[:n]
    coords = tuple(zip(map(sub, xs, repeat(min(xs), n)),
                       map(sub, ys, repeat(min(ys), n))))
    return GridDrawing(coords=coords, tail=tail, head=head)


@_gc_paused
def draw_polyline(g: EmbeddedStGraph) -> GridDrawing:
    """Split, order, draw, and fold each dummy vertex into a bend."""
    plan = minimum_split_plan(g)
    h = apply_splits(g, plan)
    ord = find_bitonic_ordering(h)
    if isinstance(ord, RejectionWitness):
        raise AssertionError("split graph unexpectedly rejected")
    base = draw_straightline(h, ord)

    # the i-th split edge keeps its id and ends at dummy g.n + i, whose
    # point is its bend
    return GridDrawing(coords=base.coords[:g.n], tail=g.tail, head=g.head,
                       bend_points=tuple(zip(plan.split_edges,
                                             base.coords[g.n:])))


def emit_svg(d: GridDrawing, scale: int = 20) -> str:
    """Deterministic SVG: circles for vertices, squares for bends.

    The y axis is flipped so ranks grow upward on screen.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    pad = scale
    h = d.height * scale + 2 * pad

    def pt(p: Point) -> tuple[int, int]:
        return p[0] * scale + pad, h - (p[1] * scale + pad)

    lines = []
    w = d.width * scale + 2 * pad
    lines.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">')
    r = max(2, scale // 5)
    for path in d.edge_paths:
        pts = " ".join(f"{x},{y}" for x, y in map(pt, path))
        lines.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="black" stroke-width="1"/>')
    for p in d.bends:
        x, y = pt(p)
        lines.append(f'<rect x="{x - r}" y="{y - r}" width="{2 * r}" '
                     f'height="{2 * r}" fill="white" stroke="black"/>')
    for p in d.coords:
        x, y = pt(p)
        lines.append(f'<circle cx="{x}" cy="{y}" r="{r}" '
                     f'fill="white" stroke="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
