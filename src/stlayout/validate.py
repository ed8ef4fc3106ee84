"""Independent geometric verification of drawings.

The checks here never reuse the layout machinery: they read only the
graph's arrays and the drawing's coordinate columns, in exact integers.
Each bend is taken as a vertex of its edge, the node the drawing already
numbers it as, so a drawing is a straight-line drawing of the subdivided
graph H, a planar st-graph with the graph's embedding and one
piece per edge.  Distinct points and upwardness are read off the pieces
directly.  Planarity is then certified from H's own faces in O(m) where
it can be, and decided by one plane sweep otherwise.

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
check, then no two edges meet except at an end they share.

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
face, so the outer face needs no test.

This is a linear-time check of a drawn subdivision in the sense of
Devillers, Liotta, Preparata and Tamassia, "Checking the convexity of
polytopes and the planarity of subdivisions" (Computational Geometry 11,
1998), and a certifying check in the sense of McConnell, Mehlhorn, Naeher
and Schweitzer, "Certifying algorithms" (Computer Science Review 5,
2011).  It only ever certifies.  A drawing that fails it, with a downward
piece, a shared point, a touch or a crossing, or planar but with a face
drawn mirrored (another embedding), goes to the sweep, which decides the
verdict and names the crossing pair.

The sweep reads the same arrays of H, so each piece is named by its edge
of H: piece ``i < m`` runs from edge ``i``'s tail to its head, or to its
bend if it has one, and piece ``m + k`` from bend ``k`` to the head of
its edge.  It sorts the grid points where pieces start or end once, in
(y, x) order, and visits each once: it locates the point in the sweep
status with one bisect on an orientation test, removes the pieces that
end there and inserts those that start there as whole slices, and
decides each pair of pieces that became neighbours with one more
orientation test.  Every test is the sign of a cross product of the
drawing's own coordinates.  A zero-length piece costs that lookup and
nothing else.  Every point takes this one path, whatever number of
pieces end and start there.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from itertools import compress, pairwise, repeat
from math import inf
from operator import add, eq, itemgetter, lt, mul

from .errors import MissingCoordinate
from .graph import EmbeddedStGraph, _gather, _gc_paused
from .layout import GridDrawing, _mismatch


@dataclass
class ValidationReport:
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
    """Every piece of every edge rises strictly, no two vertices or bends
    share a point, and no two pieces meet except at a shared endpoint.

    When the points are distinct and every piece rises, the faces read
    off the successor rows certify planarity in O(m) if each inner face's
    left chain runs strictly left of its right one (module docstring).
    Only when they cannot does the plane sweep run, in O(m log m); it
    alone finds a crossing and names the pair in the report.

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

    upward = all(map(lt, _gather(Y, tail), _gather(Y, head)))
    if not upward:  # one whole-list test; the loop words what failed
        for u, v, path in zip(g.tail, g.head, d.edge_paths):
            for a, b in pairwise(path):
                if b[1] <= a[1]:
                    violations.append(f"edge {u}->{v} piece {a}->{b} is "
                                      f"not strictly upward")
                    break

    if distinct and upward and _faces_ordered(X, Y, tail, head, out_start):
        crossing = None  # certified by the faces (module docstring)
    else:
        points = list(zip(X, Y))
        crossing = _find_proper_intersection(points, tail, head)
        if crossing is not None:
            i, j = crossing
            violations.append(
                f"edge pieces {(points[tail[i]], points[head[i]])} and "
                f"{(points[tail[j]], points[head[j]])} properly "
                f"intersect")
    planar = crossing is None and distinct

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


def _faces_ordered(X, Y, tail, head, out_start) -> bool:
    """Whether every inner face's left chain runs strictly left of its right
    chain at every height strictly between the face's source and sink, in
    a straight-line drawing of the graph with these arrays whose nodes lie
    at distinct points ``(X[v], Y[v])`` and whose edges rise.  O(m).

    Each face's chains are walked along ``lnext`` and ``rnext`` and merged
    by y.  ``a`` and ``b`` are the last points merged from the left and
    the right chain, ``l`` and ``r`` the next ones.  A lower ``l`` must lie
    strictly left of the piece from ``b`` to ``r``, a lower ``r`` strictly
    right of the piece from ``a`` to ``l``; at equal heights ``l`` must lie
    left of ``r``, unless both are the sink, the one point the chains
    share above the source.
    """
    hx, hy = _gather(X, head), _gather(Y, head)
    lnext = _gather([b - 1 for b in out_start[1:]], head)
    rnext = _gather(out_start, head)
    for le in compress(range(len(tail) - 1), map(eq, tail, tail[1:])):
        ax = bx = X[tail[le]]
        ay = by = Y[tail[le]]
        re = le + 1
        lx, ly = hx[le], hy[le]
        rx, ry = hx[re], hy[re]
        while True:
            if ly < ry:
                if (rx - bx) * (ly - by) <= (ry - by) * (lx - bx):
                    return False
                ax, ay = lx, ly
                le = lnext[le]
                lx, ly = hx[le], hy[le]
            elif ry < ly:
                if (lx - ax) * (ry - ay) >= (ly - ay) * (rx - ax):
                    return False
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
                return False
    return True


_BLOCK = 256  # status block size; a block is split past twice this


def _chunks(records):
    """records cut into blocks of ``_BLOCK``."""
    return [records[i:i + _BLOCK] for i in range(0, len(records), _BLOCK)]


def _find_proper_intersection(points, tails, heads):
    """Index pair of some properly intersecting pieces, or None.

    Piece ``i`` joins the nodes ``tails[i]`` and ``heads[i]``, and node
    ``v`` lies at the grid point ``points[v]``.  Nodes may share a point,
    and every node is an end of some piece.

    Neighbour-testing plane sweep (Shamos & Hoey, intersection existence),
    batched by grid point.  It is the sweep over the sheared plane
    (x, y) -> (x, K*y + x), K wider than the x-range, run on the raw
    coordinates.  In the sheared plane every piece of nonzero length is
    strictly monotone in the sweep coordinate, horizontal ones included,
    and each sweep height holds at most one grid point; the order of the
    heights is the (y, x) lexicographic order of the points, so the points
    are sorted once in that order and visited once each, and each piece
    runs from its first end in it, a, to its last.  The shear is linear
    with determinant K > 0, so it multiplies every cross product by K and
    keeps the orientation of any three points.  Every test below is such
    an orientation: with (dx, dy) = b - a and C = dx*a.y - dy*a.x for a
    piece r from a to b, ``dx*q.y - dy*q.x - C`` is positive iff q lies
    left of r in the sheared plane, and two directions from one point are
    ranked by the sign of their cross product.  So the event order, the
    status order and every verdict are the sheared sweep's, and the same
    pair is reported, while all arithmetic is on the small raw coordinates.

    The status holds the active pieces in x order at the sweep height.  At
    each point p:

    1. one bisect (over the blocks, then within one) finds the first
       piece that p is at or left of, ``dx*p.y - dy*p.x >= C``.  The
       pieces through p follow it as ties (equality), and they are all
       that p's removals, insertions and zero-length pieces touch, so no
       other search is needed;
    2. every tie must end at p: one that does not passes through p's
       interior and properly meets any piece with an end at p;
    3. the ties leave the status as one slice;
    4. the pieces starting at p enter it as one slice in left-to-right
       order, sorted by the exact integer key dx*H*H // dy, H the
       y-range, horizontal pieces last.  Equal directions sort next to
       each other, in index order since the sort is stable, and two of
       them are a collinear overlap: the first two the sort meets are
       the pair named;
    5. the pieces either side of the removed ties, or of the inserted
       slice, are tested: with r left of s at p and q the first of their
       last ends, they meet properly iff q ends r and lies on or right of
       s, or ends s and lies on or left of r (an end they share is a
       shared endpoint).  Nothing reported before p means no proper
       intersection before p, so they can only meet in (p, q], and this
       one test is exact.

    Pieces starting at one point meet nowhere else unless their
    directions are equal, so pairs inside an inserted slice need no test.
    As long as nothing was reported, the status order is the true order
    just before p, and the first proper intersection is either a crossing
    of two pieces that were neighbours since an earlier point, or a point
    p handled by steps 2 and 4.

    The status is a list of blocks of about ``_BLOCK`` pieces, so a slice
    removal or insertion moves O(block) entries, not O(status); a plain
    list would move tens of thousands at every point of a large drawing.
    """
    if len(tails) <= 1:
        return None
    # the distinct points in event order, sorted once by the keys
    # y*K + x, K wider than the x-range, which order them by (y, x); a
    # node's rank is its point's place there
    xs = list(map(itemgetter(0), points))
    K = max(xs) - min(xs) + 1
    del xs
    keys = [y * K + x for x, y in points]
    at_key = dict(zip(keys, points))
    order = sorted(at_key)
    pts = list(map(at_key.__getitem__, order))
    del at_key
    rank = dict(zip(order, range(len(order))))
    rank = list(map(rank.__getitem__, keys))
    del keys, order
    rt, rh = _gather(rank, tails), _gather(rank, heads)
    # top[j] is the first piece of nonzero length to start at point j, in
    # index order, and nxt[i] the next after piece i (-1 for none); last[i]
    # is the rank of piece i's last end
    top, nxt, last = [-1] * len(pts), [-1] * len(rt), [0] * len(rt)
    for i in range(len(rt) - 1, -1, -1):
        a, b = rt[i], rh[i]
        if a > b:
            a, b = b, a
        if a != b:
            nxt[i], top[a], last[i] = top[a], i, b
    del rt, rh, rank
    # slopes dx/dy with 0 < dy <= H differ by at least 1/H^2, so this
    # integer key orders them exactly, horizontal pieces last
    slope_scale = (pts[-1][1] - pts[0][1]) ** 2

    def pair(i, j):
        return (i, j) if i < j else (j, i)

    def at_or_right(r):  # p is at or left of r
        return r[1] * py - r[2] * px >= r[0]

    def last_at_or_right(blk):  # at_or_right(blk[-1]) in one call
        r = blk[-1]
        return r[1] * py - r[2] * px >= r[0]

    # A record is [C, dx, dy, last end's rank, idx], built when its piece
    # starts.  Two sentinels bound the status: every point lies right of
    # the first and left of the second, neither ever ends, and a test
    # against either fails, so the status is never empty and every point
    # has a piece either side
    blocks = [[[inf, 0, 0, len(pts), -1], [-inf, 0, 0, len(pts), -1]]]
    for j, (px, py) in enumerate(pts):
        bi = bisect_left(blocks, True, key=last_at_or_right)
        blk = blocks[bi]
        k = bisect_left(blk, True, key=at_or_right)
        left = blk[k - 1] if k else blocks[bi - 1][-1]

        bj, kj = bi, k  # end of the ties, the pieces through p
        while True:
            if kj == len(blk):
                bj, kj = bj + 1, 0
                blk = blocks[bj]
            C, dx, dy, end, tie = blk[kj]
            if dx * py - dy * px != C:
                break
            if end != j:
                return pair(tie, next(
                    e for e, ends in enumerate(zip(
                        _gather(points, tails), _gather(points, heads)))
                    if (px, py) in ends))
            kj += 1
        right = blk[kj]

        new = []
        idx = top[j]
        while idx >= 0:
            end = last[idx]
            qx, qy = pts[end]
            dx, dy = qx - px, qy - py
            new.append([dx * py - dy * px, dx, dy, end, idx])
            idx = nxt[idx]
        if len(new) > 1:
            new.sort(key=lambda r: r[1] * slope_scale // r[2]
                     if r[2] else inf)
            for ra, rb in pairwise(new):
                if ra[1] * rb[2] == rb[1] * ra[2]:
                    return pair(ra[4], rb[4])

        if bi == bj:
            blk[k:kj] = new
            if not blk:
                del blocks[bi]
            elif len(blk) > 2 * _BLOCK:
                blocks[bi:bi + 1] = _chunks(blk)
        else:  # the ties crossed a block end
            blocks[bi:bj + 1] = _chunks(blocks[bi][:k] + new + blk[kj:])

        # a point with only zero-length pieces retests two neighbours; the
        # test is exact at any point, so that cannot change the answer
        pairs = (((left, new[0]), (new[-1], right)) if new
                 else ((left, right),))
        for r, s in pairs:
            if r[3] < s[3]:  # r ends first, at q: is q on or right of s?
                qx, qy = pts[r[3]]
                if s[1] * qy - s[2] * qx <= s[0]:
                    return pair(r[4], s[4])
            elif s[3] < r[3]:  # s ends first, at q: on or left of r?
                qx, qy = pts[s[3]]
                if r[1] * qy - r[2] * qx >= r[0]:
                    return pair(r[4], s[4])
    return None
