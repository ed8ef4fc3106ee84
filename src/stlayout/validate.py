"""Independent geometric verification of drawings.

The checks here never reuse the layout machinery: each edge's pieces are
built from its vertices' points and its bend, if it has one, upwardness
is read off them directly, and planarity is decided by one plane sweep
over exact integers, whatever the drawing's size.  It visits once each grid
point where a piece starts or ends, locates it in the sweep status with
one bisect on an exact integer test, removes the pieces that end there
and inserts those that start there as whole slices, and decides each pair
of pieces that became neighbours with one comparison of their integer
keys.  A zero-length piece costs that lookup and nothing else.  Where
exactly one piece ends, as at a bend or at a vertex of a path or a tree,
the ending piece's status entry is already known, so the point needs no
lookup: one piece starting there takes the entry over, and any other
number replaces it in its block.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from itertools import pairwise
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
    coords = d.coords
    violations = []

    nodes = [*coords, *d.bends]
    distinct = len(set(nodes)) == len(nodes)
    if not distinct:
        violations.append("two vertices or bends share a coordinate")

    # one piece per straight edge, two in its place for a bent one
    straight = list(zip(_gather(coords, d.tail), _gather(coords, d.head)))
    pieces, e0 = [], 0
    for e, p in d.bend_points:
        pieces += straight[e0:e]
        pieces += (straight[e][0], p), (p, straight[e][1])
        e0 = e + 1
    pieces += straight[e0:]
    y = itemgetter(1)
    upward = all(map(lt, map(y, map(itemgetter(0), pieces)),
                     map(y, map(y, pieces))))
    if not upward:  # one whole-list test; the loop words what failed
        for u, v, path in zip(g.tail, g.head, d.edge_paths):
            for a, b in pairwise(path):
                if b[1] <= a[1]:
                    violations.append(f"edge {u}->{v} piece {a}->{b} is "
                                      f"not strictly upward")
                    break

    crossing = _find_proper_intersection(pieces)
    planar = crossing is None and distinct
    if crossing is not None:
        i, j = crossing
        violations.append(
            f"edge pieces {pieces[i]} and {pieces[j]} properly intersect")

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


def _find_proper_intersection(pieces):
    """Index pair of some properly intersecting pieces, or None.

    Neighbour-testing plane sweep (Shamos & Hoey, intersection existence),
    batched by grid point.  Pieces are sheared by
    (x, y) -> (x, y*K + x - min x) with K wider than the x-range: the map
    is linear up to a translation and invertible, so proper intersections
    and shared endpoints are preserved, every piece of nonzero length is
    strictly monotone in the sweep coordinate, horizontal ones included,
    and each sweep height holds at most one grid point, whose x is the
    height mod K.

    The status holds the active pieces in x order at the sweep height.  At
    each endpoint height Y, with grid point p:

    1. one bisect (over the blocks, then within one) finds the first
       piece whose x at Y is at least p's x, that is with
       A + dx*Y >= px*dy.  The pieces through p follow it as ties, and
       they are all that p's removals, insertions and zero-length pieces
       touch, so no other search is needed;
    2. every tie must end at p: one that does not passes through p's
       interior and properly meets any piece with an endpoint at p;
    3. the ties leave the status as one slice;
    4. the pieces starting at p enter it as one slice sorted by slope
       (two or three by their cross products, more by an exact integer
       key), and two equal slopes there are a collinear overlap;
    5. the pieces either side of the removed ties, or of the inserted
       slice, are tested: with r left of s at Y and h the lower of their
       ends, they meet properly iff r is right of s at h, or level there
       with a different end (equal ends are a shared endpoint, as a
       height holds one grid point).  Nothing reported before Y means no
       proper intersection below Y, so they can only meet in (Y, h], and
       this one comparison is exact.

    Pieces starting at one point meet nowhere else unless their slopes
    are equal, so pairs inside an inserted slice need no test.  As long
    as nothing was reported, the status order is the true order just
    below Y, and the lowest proper intersection is either a crossing of
    two pieces that were neighbours since an earlier point, or a point p
    handled by steps 2 and 4.

    Each status entry also links to its two neighbours, and steps 3 and 4
    update the links around the slice they change.  A point p where
    exactly one piece r of nonzero length ends needs neither step 1 nor
    step 2, because r is the only piece through p.  Two entries are
    tested when they become neighbours and again whenever one of them is
    rewritten (pieces from one point aside, which meet nowhere else), and
    the test reports r against any neighbour that runs on through r's
    upper end, which is p.  The pieces through p are consecutive in the
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
    if len(pieces) <= 1:
        return None
    xs = [p[0] for seg in pieces for p in seg]
    x0 = min(xs)
    K = max(xs) - x0 + 1
    del xs
    # height -> [the record of the one piece of nonzero length that ends
    # there (None until that piece starts, False if two or more end there),
    # then the index and end height of each piece that starts there]
    events = {}
    for idx, (a, b) in enumerate(pieces):
        ya = a[1] * K + a[0] - x0
        yb = b[1] * K + b[0] - x0
        if ya > yb:
            ya, yb = yb, ya
        ev = events.get(ya)
        if ev is None:
            events[ya] = ev = [None]
        if ya != yb:
            ev += idx, yb
            if yb not in events:
                events[yb] = [None]
    heights = sorted(events)
    # slopes dx/dy with dy <= span differ by at least 1/span^2, so this
    # integer key orders them exactly
    slope_scale = (heights[-1] - heights[0]) ** 2

    def pair(i, j):
        return (i, j) if i < j else (j, i)

    def at_or_right(r):  # r's x at the current sweep height Y is >= px
        return r[0] + r[1] * Y >= px * r[2]

    def last_at_or_right(blk):  # at_or_right(blk[-1]) in one call
        r = blk[-1]
        return r[0] + r[1] * Y >= px * r[2]

    # A record is [A, dx, dy, end height, idx, slot], built when its piece
    # starts: its x at height Y is (A + dx*Y) / dy.  slot is the idx the
    # entry entered the status with; lft[slot] and rgt[slot] are its
    # neighbours there (None at either end) and home[slot] is the block
    # that holds it.  Keeping these out of the records keeps them free of
    # reference cycles.
    lft, rgt = [None] * len(pieces), [None] * len(pieces)
    home = [None] * len(pieces)
    blocks = []
    for Y in heights:
        ev = events.pop(Y)
        px = x0 + Y % K
        r = ev[0]
        if len(ev) == 3 and r:  # one piece ends here and one starts
            end = ev[2]
            dx, dy = x0 + end % K - px, end - Y
            r[:5] = px * dy - dx * Y, dx, dy, end, ev[1]
            at_end = events[end]
            at_end[0] = r if at_end[0] is None else False
            pairs = (lft[r[5]], r), (r, rgt[r[5]])
        else:
            if r:  # one piece ends here, and none or two or more start
                slot = r[5]
                left, right, blk = lft[slot], rgt[slot], home[slot]
                home[slot] = None  # r leaves; its slot keeps no block alive
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

                bj, kj = bi, k  # end of the ties, the pieces with x = px
                while bj < len(blocks):
                    blk = blocks[bj]
                    while kj < len(blk):
                        A, dx, dy, end, idx, _ = blk[kj]
                        if A + dx * Y != px * dy:
                            break
                        if end != Y:
                            p = (px, Y // K)
                            return pair(idx, next(
                                i for i, seg in enumerate(pieces)
                                if p in seg))
                        kj += 1
                    if kj < len(blk):
                        break
                    bj, kj = bj + 1, 0
                right = blocks[bj][kj] if bj < len(blocks) else None
                blk = blocks[bi] if bi == bj < len(blocks) else None

            new = []
            for j in range(1, len(ev), 2):
                idx, end = ev[j], ev[j + 1]
                dx, dy = x0 + end % K - px, end - Y
                r = [px * dy - dx * Y, dx, dy, end, idx, idx]
                new.append(r)
                at_end = events[end]
                at_end[0] = r if at_end[0] is None else False
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
                if ab and ac and bc:  # three slopes, ranked
                    new[(ab > 0) + (ac > 0)] = ra
                    new[(ab < 0) + (bc > 0)] = rb
                    new[(ac < 0) + (bc < 0)] = rc
                else:  # four or more, or equal slopes among three
                    keyed = sorted([(r[1] * slope_scale // r[2], r)
                                    for r in new])
                    for (ka, ra), (kb, rb) in pairwise(keyed):
                        if ka == kb:
                            return pair(ra[4], rb[4])
                    new = [r for _, r in keyed]

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
            # the test is exact at any height, so that cannot change the
            # answer
            pairs = ((left, new[0]), (r, right)) if new else ((left, right),)

        for r, s in pairs:
            if r is None or s is None:
                continue
            h = min(r[3], s[3])
            d = (r[0] + r[1] * h) * s[2] - (s[0] + s[1] * h) * r[2]
            if d > 0 or d == 0 and r[3] != s[3]:
                return pair(r[4], s[4])
    return None
