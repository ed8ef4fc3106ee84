"""Independent geometric verification of drawings.

The checks here never reuse the layout machinery: each edge's pieces are
built from its vertices' points and its bend, if it has one, upwardness
is read off them directly, and planarity is decided by one plane sweep
over exact integers, whatever the drawing's size.  The sweep sorts the
grid points where pieces start or end once, in (y, x) order, and visits
each once: it locates the point in the sweep status with one bisect on an
orientation test, removes the pieces that end there and inserts those
that start there as whole slices, and decides each pair of pieces that
became neighbours with one more orientation test.  Every test is the
sign of a cross product of the drawing's own coordinates.  A zero-length
piece costs that lookup and nothing else.  Where exactly one piece ends,
as at a bend or at a vertex of a path or a tree, the ending piece's
status entry is already known, so the point needs no lookup: one piece
starting there takes the entry over, and any other number replaces it in
its block.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from itertools import pairwise
from math import inf
from operator import itemgetter, lt

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

    Raises :class:`MissingCoordinate` unless ``d`` has one point per vertex
    of ``g`` and ``g``'s edges.
    """
    if why := _mismatch(d, g):
        raise MissingCoordinate(why)
    violations = []

    # node v lies at points[v], and piece i runs from node tails[i] to
    # node heads[i]: the vertices and edges, and where edges are bent, the
    # bends after the vertices and two pieces in each bent edge's place
    points, tails, heads = d.coords, d.tail, d.head
    if d.bend_points:
        points = [*d.coords, *d.bends]
        tails, heads, e0 = [], [], 0
        for v, (e, _) in enumerate(d.bend_points, len(d.coords)):
            tails += d.tail[e0:e]
            tails += d.tail[e], v
            heads += d.head[e0:e]
            heads += v, d.head[e]
            e0 = e + 1
        tails += d.tail[e0:]
        heads += d.head[e0:]
    distinct = len(set(points)) == len(points)
    if not distinct:
        violations.append("two vertices or bends share a coordinate")

    y = itemgetter(1)
    upward = all(map(lt, map(y, _gather(points, tails)),
                     map(y, _gather(points, heads))))
    if not upward:  # one whole-list test; the loop words what failed
        for u, v, path in zip(g.tail, g.head, d.edge_paths):
            for a, b in pairwise(path):
                if b[1] <= a[1]:
                    violations.append(f"edge {u}->{v} piece {a}->{b} is "
                                      f"not strictly upward")
                    break

    crossing = _find_proper_intersection(points, tails, heads)
    planar = crossing is None and distinct
    if crossing is not None:
        i, j = crossing
        violations.append(
            f"edge pieces {(points[tails[i]], points[heads[i]])} and "
            f"{(points[tails[j]], points[heads[j]])} properly intersect")

    return ValidationReport(
        upward=upward,
        planar=planar,
        width=d.width,
        height=d.height,
        bends_total=len(d.bend_points),
        bends_max_per_edge=1 if d.bend_points else 0,
        violations=violations,
    )


def check_bounds(d: GridDrawing, n: int, mode: str) -> bool:
    """Area and bend bounds for the drawing of an n-vertex graph.

    straightline: (2n-2) x (n-1), no bends.  polyline: (4n-8) x (2n-4)
    and at most n-3 bends; for n < 3 the straight-line box applies since
    no edge is ever split.  One bend per edge is the drawing type's own
    invariant.
    """
    bends = len(d.bend_points)
    if mode == "straightline":
        return (not bends and d.width <= 2 * n - 2
                and d.height <= n - 1)
    if mode == "polyline":
        return (d.width <= max(4 * n - 8, 2 * n - 2)
                and d.height <= max(2 * n - 4, n - 1)
                and bends <= max(n - 3, 0))
    raise ValueError(f"unknown mode {mode!r}")


_BLOCK = 256  # status block size; a block is split past twice this


def _chunks(records, home):
    """records cut into blocks of ``_BLOCK``; home[slot] is set to the
    block of each."""
    blocks = []
    for i in range(0, len(records), _BLOCK):
        blk = records[i:i + _BLOCK]
        for r in blk:
            home[r[5]] = blk
        blocks.append(blk)
    return blocks


def _overlap_pair(px, py, run, x0, K):
    """The index pair named among the records in ``run``, pieces that start
    at (px, py) in one direction, any two of which overlap.

    The choice is a fixed convention, kept so that the reported pair never
    moves: the first two by (K*(p x e) + x0*dx, dx, K*dy + dx, index),
    with e = (dx, dy) a piece's extent, x0 the least x and K the x-range
    plus one.
    """
    ra, rb = sorted(run, key=lambda r: (K * (px * r[2] - py * r[1])
                                        + x0 * r[1], r[1],
                                        K * r[2] + r[1], r[4]))[:2]
    return (ra[4], rb[4]) if ra[4] < rb[4] else (rb[4], ra[4])


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
       order (two or three by their cross products, more by the exact
       integer key dx*H*H // dy, H the y-range, horizontal pieces last),
       and two equal directions there are a collinear overlap (which
       pair of three or more is named is ``_overlap_pair``'s convention);
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

    Each status entry also links to its two neighbours, and steps 3 and 4
    update the links around the slice they change.  A point p where
    exactly one piece r of nonzero length ends needs neither step 1 nor
    step 2, because r is the only piece through p.  Two entries are
    tested when they become neighbours and again whenever one of them is
    rewritten (pieces from one point aside, which meet nowhere else), and
    the test reports r against any neighbour that runs on through r's
    last end, which is p.  The pieces through p are consecutive in the
    status, so if nothing was reported, r is the only one: steps 1 and 2
    would find r as the only tie, and r's linked neighbours are the
    pieces either side of it.  So:

    - if exactly one piece q starts at p, q's values are written into
      r's entry in place, its end is noted, and q is tested against the
      entry's neighbours in step 5's order;
    - otherwise steps 3 and 4 are one splice that puts the pieces
      starting at p, if any, in r's place.  ``home[slot]`` is the block
      that holds an entry, set wherever entries enter a block (that
      splice, a block split and a rebuild across blocks), so one bisect
      within r's block finds r.  The block's own index is needed only
      when the block empties or splits; the bisect over the blocks finds
      it then, before the splice.

    Either way step 5 tests the pairs steps 1 to 4 would have, so the
    same pair is reported.  On drawings of paths and fans this covers
    almost every point.

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
    x0 = min(xs)
    K = max(xs) - x0 + 1
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

    # A record is [C, dx, dy, last end's rank, idx, slot], built when its
    # piece starts.  slot is the idx the entry entered the status with;
    # lft[slot] and rgt[slot] are its neighbours there (None at either
    # end) and home[slot] is the block that holds it.  Keeping these out
    # of the records keeps them free of reference cycles.  ending[j] is
    # the record of the one piece of nonzero length that ends at point j
    # (None until that piece starts, False if two or more end there).
    lft, rgt = [None] * len(tails), [None] * len(tails)
    home = [None] * len(tails)
    ending = [None] * len(pts)
    blocks = []
    for j, (px, py) in enumerate(pts):
        r = ending[j]
        idx = top[j]
        if r and idx >= 0 and nxt[idx] < 0:  # one piece ends, one starts
            end = last[idx]
            qx, qy = pts[end]
            dx, dy = qx - px, qy - py
            r[:5] = dx * py - dy * px, dx, dy, end, idx
            ending[end] = r if ending[end] is None else False
            pairs = (lft[r[5]], r), (r, rgt[r[5]])
        else:
            if r:  # one piece ends here, and none or two or more start
                slot = r[5]
                left, right, blk = lft[slot], rgt[slot], home[slot]
                # r leaves; neither it nor its slot keeps it or a block alive
                ending[j] = home[slot] = None
                k = bisect_left(blk, True, key=at_or_right)
                kj, bi = k + 1, None
            else:
                bi = k = 0
                if blocks:
                    bi = bisect_left(blocks, True, key=last_at_or_right)
                    if bi == len(blocks):
                        bi -= 1
                        k = len(blocks[bi])
                    else:
                        k = bisect_left(blocks[bi], True, key=at_or_right)
                left = (blocks[bi][k - 1] if k else
                        blocks[bi - 1][-1] if bi else None)

                bj, kj = bi, k  # end of the ties, the pieces through p
                while bj < len(blocks):
                    blk = blocks[bj]
                    while kj < len(blk):
                        C, dx, dy, end, tie, _ = blk[kj]
                        if dx * py - dy * px != C:
                            break
                        if end != j:
                            return pair(tie, next(
                                e for e, ends in enumerate(zip(
                                    _gather(points, tails),
                                    _gather(points, heads)))
                                if (px, py) in ends))
                        kj += 1
                    if kj < len(blk):
                        break
                    bj, kj = bj + 1, 0
                right = blocks[bj][kj] if bj < len(blocks) else None
                blk = blocks[bi] if bi == bj < len(blocks) else None

            new = []
            while idx >= 0:
                end = last[idx]
                qx, qy = pts[end]
                dx, dy = qx - px, qy - py
                r = [dx * py - dy * px, dx, dy, end, idx, idx]
                new.append(r)
                ending[end] = r if ending[end] is None else False
                idx = nxt[idx]
            if len(new) == 2:  # the usual case, by one cross product
                ra, rb = new
                d = ra[1] * rb[2] - rb[1] * ra[2]
                if d == 0:
                    return pair(ra[4], rb[4])
                if d > 0:
                    new.reverse()
            elif len(new) > 2:
                ab = ac = bc = 0
                if len(new) == 3:
                    ra, rb, rc = new
                    ab = ra[1] * rb[2] - rb[1] * ra[2]
                    ac = ra[1] * rc[2] - rc[1] * ra[2]
                    bc = rb[1] * rc[2] - rc[1] * rb[2]
                if ab and ac and bc:  # three directions, ranked
                    new[(ab > 0) + (ac > 0)] = ra
                    new[(ab < 0) + (bc > 0)] = rb
                    new[(ac < 0) + (bc < 0)] = rc
                else:  # four or more, or equal directions among three
                    new.sort(key=lambda r: r[1] * slope_scale // r[2]
                             if r[2] else inf)
                    for ra, rb in pairwise(new):
                        if ra[1] * rb[2] == rb[1] * ra[2]:
                            return _overlap_pair(px, py, [
                                r for r in new
                                if r[1] * ra[2] == ra[1] * r[2]], x0, K)

            if blk is None:  # the ties crossed a block end, or no status
                rest = (blocks[bi][:k] if blocks else []) + new
                if bj < len(blocks):
                    rest += blocks[bj][kj:]
                blocks[bi:bj + 1] = _chunks(rest, home)
            else:
                size = len(blk) - (kj - k) + len(new)
                if bi is None and not 0 < size <= 2 * _BLOCK:
                    # the block empties or splits: find it, before the
                    # splice, by its last entry
                    bi = bisect_left(blocks, True, key=last_at_or_right)
                blk[k:kj] = new
                for r in new:
                    home[r[5]] = blk
                if not blk:
                    del blocks[bi]
                elif len(blk) > 2 * _BLOCK:
                    blocks[bi:bi + 1] = _chunks(blk, home)

            r = left  # link the new neighbours, or left and right
            for s in new:
                if r is not None:
                    rgt[r[5]] = s
                lft[s[5]] = r
                r = s
            if r is not None:
                rgt[r[5]] = right
            if right is not None:
                lft[right[5]] = r
            # a point with only zero-length pieces retests two neighbours;
            # the test is exact at any point, so that cannot change the
            # answer
            pairs = ((left, new[0]), (r, right)) if new else ((left, right),)

        for r, s in pairs:
            if r is None or s is None:
                continue
            if r[3] < s[3]:  # r ends first, at q: is q on or right of s?
                qx, qy = pts[r[3]]
                if s[1] * qy - s[2] * qx <= s[0]:
                    return pair(r[4], s[4])
            elif s[3] < r[3]:  # s ends first, at q: on or left of r?
                qx, qy = pts[s[3]]
                if r[1] * qy - r[2] * qx >= r[0]:
                    return pair(r[4], s[4])
    return None
