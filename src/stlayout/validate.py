"""Independent geometric verification of drawings.

The checks here never reuse the layout machinery: upwardness is read off
the edge paths directly and planarity is decided by exact integer segment
predicates.  One plane sweep checks every drawing, whatever its size.  It
visits once each grid point where a piece starts or ends, locates it in
the sweep status with one bisect on an exact integer key, removes the
pieces that end there and inserts those that start there as whole
slices, and tests only the pieces that became neighbours.  A zero-length
piece costs that lookup and nothing else.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import MissingCoordinate
from .geometry import segments_properly_intersect
from .graph import EmbeddedStGraph
from .layout import GridDrawing


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
        return json.dumps({
            "upward": self.upward,
            "planar": self.planar,
            "width": self.width,
            "height": self.height,
            "bends_total": self.bends_total,
            "bends_max_per_edge": self.bends_max_per_edge,
            "violations": self.violations,
        }, indent=2)


def check_upward_planar(g: EmbeddedStGraph,
                        d: GridDrawing) -> ValidationReport:
    """Strict y-monotonicity per edge piece plus pairwise crossing test."""
    if len(d.coords) < g.n:
        raise MissingCoordinate(
            f"drawing has {len(d.coords)} coordinates for {g.n} vertices")

    violations = []

    bends = [p for path in d.edge_paths for p in path[1:-1]]
    nodes = list(d.coords[:g.n]) + bends
    distinct = len(set(nodes)) == len(nodes)
    if not distinct:
        violations.append("two vertices or bends share a coordinate")

    upward = True
    for e, path in enumerate(d.edge_paths):
        for a, b in zip(path, path[1:]):
            if b[1] <= a[1]:
                upward = False
                violations.append(
                    f"edge {g.tail[e]}->{g.head[e]} piece {a}->{b} "
                    f"is not strictly upward")
                break

    pieces = [(a, b) for path in d.edge_paths
              for a, b in zip(path, path[1:])]
    crossing = _find_proper_intersection(pieces)
    planar = crossing is None and distinct
    if crossing is not None:
        i, j = crossing
        violations.append(
            f"edge pieces {pieces[i]} and {pieces[j]} properly intersect")

    xs = [p[0] for p in nodes] or [0]
    ys = [p[1] for p in nodes] or [0]
    per_edge = [len(path) - 2 for path in d.edge_paths]
    return ValidationReport(
        upward=upward,
        planar=planar,
        width=max(xs) - min(xs),
        height=max(ys) - min(ys),
        bends_total=sum(per_edge),
        bends_max_per_edge=max(per_edge, default=0),
        violations=violations,
    )


def check_bounds(d: GridDrawing, n: int, mode: str) -> bool:
    """Area and bend bounds for the drawing of an n-vertex graph.

    straightline: (2n-2) x (n-1), no bends.  polyline: (4n-8) x (2n-4)
    and at most n-3 bends, one per edge; for n < 3 the straight-line box
    applies since no edge is ever split.
    """
    bends = d.bend_points
    if mode == "straightline":
        return (not bends and d.width <= 2 * n - 2
                and d.height <= n - 1)
    if mode == "polyline":
        per_edge = max((len(p) - 2 for p in d.edge_paths), default=0)
        return (d.width <= max(4 * n - 8, 2 * n - 2)
                and d.height <= max(2 * n - 4, n - 1)
                and len(bends) <= max(n - 3, 0)
                and per_edge <= 1)
    raise ValueError(f"unknown mode {mode!r}")


_BLOCK = 256  # status block size; a block is split past twice this


def _chunks(pieces):
    return [pieces[i:i + _BLOCK] for i in range(0, len(pieces), _BLOCK)]


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
       piece whose x at Y is at least p's x.  Its key, the floor of that
       x, is an exact integer, and floor(x) >= x(p) exactly when
       x >= x(p).  The pieces through p follow it as ties, and they are
       all that p's removals, insertions and zero-length pieces touch,
       so no other search is needed;
    2. every tie must end at p: one that does not passes through p's
       interior and properly meets any piece with an endpoint at p;
    3. the ties leave the status as one slice;
    4. the pieces starting at p enter it as one block sorted by slope,
       and two equal slopes there are a collinear overlap;
    5. only the pairs that became adjacent are tested: the pieces either
       side of the removed ties, or either side of the inserted block.

    Pieces starting at one point meet nowhere else unless their slopes
    are equal, so pairs inside a block need no test.  As long as nothing
    was reported, the status order is the true order just below Y, and
    the lowest proper intersection is either a crossing of two pieces
    that were neighbours since an earlier point, or a point p handled by
    steps 2 and 4.

    The status is a list of blocks of about ``_BLOCK`` pieces, so a slice
    removal or insertion moves O(block) entries, not O(status); a plain
    list would move tens of thousands at every point of a large drawing.
    """
    if len(pieces) <= 1:
        return None
    xs = [p[0] for seg in pieces for p in seg]
    x0 = min(xs)
    K = max(xs) - x0 + 1
    starts = {}  # height -> (A, dx, dy, end height, idx) of pieces from it
    heights = set()
    for idx, (a, b) in enumerate(pieces):
        ya = a[1] * K + a[0] - x0
        yb = b[1] * K + b[0] - x0
        if ya > yb:
            a, b, ya, yb = b, a, yb, ya
        heights.add(ya)
        if ya == yb:
            continue
        heights.add(yb)
        dx, dy = b[0] - a[0], yb - ya
        # x at height Y is (A + dx*Y) / dy
        starts.setdefault(ya, []).append(
            (a[0] * dy - dx * ya, dx, dy, yb, idx))
    heights = sorted(heights)
    # slopes dx/dy with dy <= span differ by at least 1/span^2, so this
    # integer key orders them exactly
    slope_scale = (heights[-1] - heights[0]) ** 2

    def pair(i, j):
        return (i, j) if i < j else (j, i)

    def floor_x(r):  # floor of r's x at the current sweep height Y
        return (r[0] + r[1] * Y) // r[2]

    blocks = []
    for Y in heights:
        px = x0 + Y % K
        bi = k = 0
        if blocks:
            bi = bisect_left(blocks, px, key=lambda b: floor_x(b[-1]))
            if bi == len(blocks):
                bi -= 1
                k = len(blocks[bi])
            else:
                k = bisect_left(blocks[bi], px, key=floor_x)
        left = (blocks[bi][k - 1] if k else
                blocks[bi - 1][-1] if bi else None)

        bj, kj = bi, k  # end of the ties, the pieces with x exactly px
        while bj < len(blocks):
            blk = blocks[bj]
            while kj < len(blk):
                A, dx, dy, end, idx = blk[kj]
                if A + dx * Y != px * dy:
                    break
                if end != Y:
                    p = (px, Y // K)
                    return pair(idx, next(i for i, seg in enumerate(pieces)
                                          if p in seg))
                kj += 1
            if kj < len(blk):
                break
            bj, kj = bj + 1, 0
        right = blocks[bj][kj] if bj < len(blocks) else None

        new = starts.get(Y, [])
        if len(new) > 1:
            keyed = sorted((r[1] * slope_scale // r[2], r) for r in new)
            for (ka, ra), (kb, rb) in zip(keyed, keyed[1:]):
                if ka == kb:
                    return pair(ra[4], rb[4])
            new = [r for _, r in keyed]

        if bi == bj < len(blocks):
            blk = blocks[bi]
            blk[k:kj] = new
            if not blk:
                del blocks[bi]
            elif len(blk) > 2 * _BLOCK:
                blocks[bi:bi + 1] = _chunks(blk)
        else:  # the scan crossed a block end, or the status is empty
            rest = (blocks[bi][:k] if blocks else []) + new
            if bj < len(blocks):
                rest += blocks[bj][kj:]
            blocks[bi:bj + 1] = _chunks(rest)

        if new:
            pairs = ((left, new[0]), (new[-1], right))
        elif (bj, kj) != (bi, k):
            pairs = ((left, right),)
        else:
            pairs = ()
        for r, s in pairs:
            if (r is not None and s is not None
                    and segments_properly_intersect(*pieces[r[4]],
                                                    *pieces[s[4]])):
                return pair(r[4], s[4])
    return None
