"""Independent geometric verification of drawings.

The checks here never reuse the layout machinery: they read only the
graph's arrays and the drawing's coordinate columns, in exact integers.
Each bend is taken as a vertex of its edge, the node the drawing already
numbers it as, so a drawing is a straight-line drawing of the subdivided
graph H, a planar st-graph with the graph's embedding and one
piece per edge.  Distinct points and upwardness are read off the pieces
directly.  Planarity is then decided from H's own faces in O(m).

Contract.  Let the points be distinct and every piece rise.  Then every
inner face passes the face check if and only if the drawing is a planar
drawing of H's embedding: no two pieces meet except at an end they
share, and each vertex's out-pieces leave it in the clockwise order of
its successor row, which for rising pieces is left to right.  The
paper draws the given embedded graph, so that is what is certified: a
planar drawing of another embedding, one drawn mirrored say, fails.

The face check reads only H's successor rows and the points.  An inner
face's left chain is the left out-edge at its source corner and then
each head's last out-edge, its right chain the right one and then each
head's first.  The check merges them by y: every chain point strictly
between the face's source and sink must lie strictly on its own side of
the other chain's piece at that height, by one orientation test, or by
an x comparison where the other chain has a point at the same height.
The walks need no end test: each chain rises to the sink, the highest
point of both and the only one they share above the source, so the merge
never advances a walk at the sink and stops when both reach it.

Lemma.  If a straight-line drawing of a planar st-graph H has distinct
points and strictly rising edges, and every inner face passes the face
check, then no two edges meet except at an end they share, and the
drawing is of H's embedding.

Proof.  In a face, x_R(y) - x_L(y) is linear between the heights of the
chain points, zero at the source and the sink and, by the check, positive
at every chain point in between; there is one, since H has no parallel
edges.  So the left chain runs strictly left of the right one throughout.
Now fix a height y0 and let S hold the vertices below y0, or those at or
below it.  Edges rise, so S holds every predecessor of its vertices, and
s but not t; the edges leaving S are the frontier of an st-sweep that has
placed S (``graph._frontier_sweep``), so in embedding order each
consecutive pair is the left and the right chain of one inner face with
its source in S and its sink outside.  Read each such edge's x at y0:
along the cut x never falls, and two consecutive edges tie only at their
face's source or sink at height y0, an end they share there.  Suppose
edges a and b meet at a point p at height y0 that is not an end they
share; if they overlap, take p inside the overlap.  Points are distinct,
so p is an end of at most one of them, and the other runs through p.
Take S at or below y0 unless p is a head, below y0 if it is: then a and
b both leave S with x = p.x at y0, so every edge between them in the cut
has that x too, and each consecutive pair from a to b shares an end at
height y0.  But the edge that runs through p has no end there.  Only
consecutive edges of a cut are ever compared, and they bound an inner
face, so the outer face needs no test.  Last, the first test of the face
at the corner between out-edges c and c + 1 of u compares the two pieces
from u, and it holds exactly when piece c + 1 leaves u strictly
clockwise of piece c.  So every row is drawn clockwise, and in a planar
upward drawing the rows fix the embedding: the in-edge order at every
vertex, and so every face, follows from them (``graph._frontier_sweep``).

Converse.  If such a drawing is a planar drawing of H's embedding, every
inner face passes the face check.

Proof.  Take an inner face with source u, its source corner between
out-edges c and c + 1, and sink w.  Its chains are its two boundary
paths from u to w, internally disjoint, and they rise, so each meets
every height y in (y_u, y_w) at one point, at x_L(y) and x_R(y), both
continuous in y.  The drawing is planar, so the chains meet only at u
and w, and x_R - x_L has no zero on (y_u, y_w): it keeps one sign
there.  That sign is positive, since just above u it is the order of
pieces c and c + 1, which leave u in clockwise row order, and the
clockwise order of rising pieces is left to right.  So every chain point
strictly between u and w lies strictly on its own side of the other
chain.  Those are the merge's tests: a lower left point against the
right chain's piece at its height, from the last merged point, strictly
below it, to the next, strictly above; a lower right point likewise;
two points at one height by their x.  Every test holds, and the merge
stops at w.

This is a linear-time check of a drawn subdivision in the sense of
Devillers, Liotta, Preparata and Tamassia, "Checking the convexity of
polytopes and the planarity of subdivisions" (Computational Geometry 11,
1998), and a certifying check in the sense of McConnell, Mehlhorn, Naeher
and Schweitzer, "Certifying algorithms" (Computer Science Review 5,
2011).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import compress, pairwise, repeat
from operator import add, eq, lt, mul

from .errors import MissingCoordinate
from .graph import EmbeddedStGraph, _gather, _gc_paused
from .layout import GridDrawing, _mismatch


@dataclass
class ValidationReport:
    """What :func:`check_upward_planar` found.  ``upward``: every piece
    rises strictly.  ``planar``: the points are distinct, every piece
    rises and every inner face passes the face check, that is, the
    drawing is a planar drawing of the graph's own embedding (module
    docstring); False otherwise.  ``violations`` words each failure, and
    the report is ``ok`` when it holds none."""

    upward: bool
    planar: bool
    width: int
    height: int
    bends_total: int
    bends_max_per_edge: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [
            f"upward   {'ok' if self.upward else 'FAIL'}",
            f"planar   {'ok' if self.planar else 'FAIL'}",
            f"box      {self.width} x {self.height}",
            f"bends    {self.bends_total} "
            f"(max {self.bends_max_per_edge} per edge)",
        ]
        lines += [f"violation: {v}" for v in self.violations]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@_gc_paused
def check_upward_planar(g: EmbeddedStGraph,
                        d: GridDrawing) -> ValidationReport:
    """Whether ``d`` is an upward planar drawing of ``g``'s embedding:
    every piece of every edge rises strictly, no two vertices or bends
    share a point, and every inner face passes the face check, which on
    such points holds exactly when no two pieces meet except at a shared
    endpoint and each vertex's out-edges leave it left to right in
    successor order (module docstring).  O(m).  So a planar drawing of
    another embedding, a mirrored one say, fails.  The first face that
    fails, in corner order, is named by its source vertex, the two
    successors at its corner and the first chain point that the merge
    finds on the wrong side of the other chain.

    Raises :class:`MissingCoordinate` unless ``d`` has one point per vertex
    of ``g`` and ``g``'s edges.
    """
    if why := _mismatch(d, g):
        raise MissingCoordinate(why)
    violations = []

    # node v lies at (X[v], Y[v]): the vertices, then the bends.  With
    # each bend a vertex of its edge the drawing is a straight-line
    # drawing of the subdivided graph, one piece per edge
    X, Y = d.x, d.y
    tail, head, out_start = _subdivided(g, d)
    # the x values span fewer than K, so y*K + x names each point once
    K = d.width + 1
    distinct = len(set(map(add, map(mul, Y, repeat(K)), X))) == len(X)
    if not distinct:
        violations.append("two vertices or bends share a coordinate")

    hy = _gather(Y, head)  # each piece's upper y, read by both tests
    upward = all(map(lt, _gather(Y, tail), hy))
    if not upward:  # one whole-list test; the loop words what failed
        for u, v, path in zip(g.tail, g.head, d.edge_paths):
            for a, b in pairwise(path):
                if b[1] <= a[1]:
                    violations.append(f"edge {u}->{v} piece {a}->{b} is "
                                      f"not strictly upward")
                    break

    planar = False
    if distinct and upward:
        failed = _misordered_face(X, Y, hy, tail, head, out_start)
        planar = failed is None
        if failed:
            c, v, side = failed
            u, other = g.tail[c], "right" if side == "left" else "left"
            violations.append(
                f"face at vertex {u} between edges {u}->{g.head[c]} and "
                f"{u}->{g.head[c + 1]}: point {(X[v], Y[v])} of its "
                f"{side} chain is not {side} of its {other} chain")

    return ValidationReport(
        upward=upward,
        planar=planar,
        width=d.width,
        height=d.height,
        bends_total=len(d.bent),
        bends_max_per_edge=1 if d.bent else 0,
        violations=violations,
    )


def check_bounds(d: GridDrawing, n: int, mode: str) -> bool:
    """Area and bend bounds for the drawing of an n-vertex graph.

    straightline: (2n-2) x (n-1), no bends.  polyline: (4n-8) x (2n-4)
    and at most n-3 bends; for n < 3 the straight-line box applies since
    no edge is ever split.  One bend per edge is the drawing type's own
    invariant.
    """
    bends = len(d.bent)
    if mode == "straightline":
        return (not bends and d.width <= 2 * n - 2
                and d.height <= n - 1)
    if mode == "polyline":
        return (d.width <= max(4 * n - 8, 2 * n - 2)
                and d.height <= max(2 * n - 4, n - 1)
                and bends <= max(n - 3, 0))
    raise ValueError(f"unknown mode {mode!r}")


def _subdivided(g: EmbeddedStGraph, d: GridDrawing):
    """The tail, head and out_start arrays of ``g`` with each bend a vertex
    of its edge.  Bend ``k`` is node ``g.n + k``, as in ``d``; a bent edge
    keeps its id for its piece from its tail, and its piece from bend
    ``k`` up is edge ``g.m + k``, so the edges stay numbered by tail and
    then clockwise."""
    bent = d.bent
    if not bent:
        return g.tail, g.head, g.out_start
    n, m, k = g.n, g.m, len(bent)
    head = list(g.head)
    for e, b in zip(bent, range(n, n + k)):
        head[e] = b
    head += _gather(g.head, bent)
    return (g.tail + tuple(range(n, n + k)), head,
            g.out_start + tuple(range(m + 1, m + k + 1)))


def _misordered_face(X, Y, hy, tail, head, out_start):
    """The first inner face whose left chain does not run strictly left of
    its right chain at every height strictly between the face's source and
    sink, or None, in a straight-line drawing of the graph with these
    arrays whose nodes lie at distinct points ``(X[v], Y[v])`` and whose
    edges rise; ``hy`` is ``Y`` gathered by ``head``.  O(m).  A face is
    returned as ``(c, v, side)``: its source corner, between out-edges
    ``c`` and ``c + 1``, and the node ``v`` of its ``side`` chain,
    ``"left"`` or ``"right"``, that lies on the wrong side of the other
    chain.

    Each face's chains are walked along ``lnext`` and ``rnext`` and merged
    by y.  ``a`` and ``b`` are the last points merged from the left and
    the right chain, ``l`` and ``r`` the next ones.  A lower ``l`` must lie
    strictly left of the piece from ``b`` to ``r``, a lower ``r`` strictly
    right of the piece from ``a`` to ``l``; at equal heights ``l`` must lie
    left of ``r``, unless both are the sink, the one point the chains
    share above the source.
    """
    hx = _gather(X, head)
    lnext = _gather([b - 1 for b in out_start[1:]], head)
    rnext = _gather(out_start, head)
    for c in compress(range(len(tail) - 1), map(eq, tail, tail[1:])):
        ax = bx = X[tail[c]]
        ay = by = Y[tail[c]]
        le, re = c, c + 1
        lx, ly = hx[le], hy[le]
        rx, ry = hx[re], hy[re]
        while True:
            if ly < ry:
                if (rx - bx) * (ly - by) <= (ry - by) * (lx - bx):
                    return c, head[le], "left"
                ax, ay = lx, ly
                le = lnext[le]
                lx, ly = hx[le], hy[le]
            elif ry < ly:
                if (lx - ax) * (ry - ay) >= (ly - ay) * (rx - ax):
                    return c, head[re], "right"
                bx, by = rx, ry
                re = rnext[re]
                rx, ry = hx[re], hy[re]
            elif lx < rx:
                ax, ay, bx, by = lx, ly, rx, ry
                le, re = lnext[le], rnext[re]
                lx, ly = hx[le], hy[le]
                rx, ry = hx[re], hy[re]
            elif lx == rx:  # the sink
                break
            else:
                return c, head[le], "left"
    return None
