"""Independent geometric verification of drawings.

The checks here never reuse the layout machinery: upwardness is read off
the edge paths directly and planarity is decided by exact integer segment
predicates.  One plane sweep checks every drawing, whatever its size: it
only ever tests neighbouring pieces, and it looks each zero-length piece
up in the sweep status instead of testing it against every other piece.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from sortedcontainers import SortedList

from .errors import MissingCoordinate
from .geometry import on_segment, segments_properly_intersect
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


class _ActiveSeg:
    """A piece on the sweep status line, ordered by x at the sweep height.

    Coordinates are sheared so that the second coordinate strictly
    increases along every piece; ties on x are broken by slope, then by
    piece index, which makes the order total.
    """

    __slots__ = ("x1", "y1", "x2", "y2", "idx", "cur")

    def __init__(self, x1, y1, x2, y2, idx, cur):
        self.x1, self.y1, self.x2, self.y2 = x1, y1, x2, y2
        self.idx = idx
        self.cur = cur  # shared one-element list holding the sweep height

    def __lt__(self, other):
        y, phase = self.cur
        da, db = self.y2 - self.y1, other.y2 - other.y1
        lhs = (self.x1 * da + (self.x2 - self.x1) * (y - self.y1)) * db
        rhs = (other.x1 * db + (other.x2 - other.x1) * (y - other.y1)) * da
        if lhs != rhs:
            return lhs < rhs
        # pieces meeting the sweep line at the same point: just above it
        # they fan out by ascending slope, just below by descending slope.
        # Removal events look downward, insertions upward.
        sa = (self.x2 - self.x1) * db
        sb = (other.x2 - other.x1) * da
        if sa != sb:
            return sa < sb if phase > 0 else sa > sb
        return self.idx < other.idx


def _proper(a: _ActiveSeg, b: _ActiveSeg):
    if segments_properly_intersect((a.x1, a.y1), (a.x2, a.y2),
                                   (b.x1, b.y1), (b.x2, b.y2)):
        return (a.idx, b.idx) if a.idx < b.idx else (b.idx, a.idx)
    return None


def _find_proper_intersection(pieces):
    """Index pair of some properly intersecting pieces, or None.

    Neighbour-testing plane sweep (Shamos & Hoey, intersection existence).
    Pieces are sheared by (x, y) -> (x, y*K + x) with K wider than the
    x-range; the shear is linear and invertible, so proper intersections
    and shared endpoints are preserved, every non-degenerate piece becomes
    strictly monotone in the sweep coordinate, and distinct points get
    distinct sweep heights.  The status line keeps active pieces sorted by
    x; only pieces that become neighbours are tested, which is sufficient
    to detect whether any proper intersection exists at all.

    A zero-length piece is a query at its own sweep height, after the
    removals and before the insertions there, so every active piece spans
    that height strictly and passes through the point only in its
    interior.  Pieces through the point are adjacent in the status, so
    testing the two neighbours of the point's position is enough.
    """
    if len(pieces) <= 1:
        return None
    xs = [p[0] for seg in pieces for p in seg]
    K = max(xs) - min(xs) + 1
    cur = [0, 1]  # sweep height and phase (+1 insertion, -1 otherwise)
    events = []  # (height, kind, idx, piece): 0 removal, 1 query, 2 insert
    for idx, (a, b) in enumerate(pieces):
        sa = (a[0], a[1] * K + a[0])
        sb = (b[0], b[1] * K + b[0])
        if sa[1] > sb[1]:
            sa, sb = sb, sa
        if sa == sb:
            # a unit-high vertical probe compares by x at the query height
            probe = _ActiveSeg(sa[0], sa[1], sa[0], sa[1] + 1, idx, cur)
            events.append((sa[1], 1, idx, probe))
            continue
        s = _ActiveSeg(sa[0], sa[1], sb[0], sb[1], idx, cur)
        events.append((sb[1], 0, idx, s))
        events.append((sa[1], 2, idx, s))
    events.sort(key=lambda ev: ev[:3])

    status = SortedList()
    for y, kind, _, s in events:
        cur[0] = y
        cur[1] = 1 if kind == 2 else -1
        if kind == 2:
            status.add(s)
            i = status.index(s)
            for j in (i - 1, i + 1):
                if 0 <= j < len(status) and status[j] is not s:
                    bad = _proper(s, status[j])
                    if bad:
                        return bad
        elif kind == 1:
            i = status.bisect_left(s)
            p = (s.x1, s.y1)
            for t in status[max(i - 1, 0):i + 1]:
                if on_segment((t.x1, t.y1), (t.x2, t.y2), p):
                    return min(s.idx, t.idx), max(s.idx, t.idx)
        else:
            i = status.index(s)
            status.remove(s)
            if 0 < i < len(status):
                bad = _proper(status[i - 1], status[i])
                if bad:
                    return bad
    return None
