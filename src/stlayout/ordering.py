"""Recognition of bitonic st-orderings, their computation and split plans.

One scan walks every successor list once, reading the path direction
across each corner from ``corner_dir``.  A graph is rejected exactly when
some list has a right-to-left path followed by a left-to-right one; the
scan splits each such list as the minimum plan does.  Its gap edges make
every list of the split graph bitonic under any topological order of the
augmented graph; Kahn's sort on a ready stack ranks in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import gt, lt

from .graph import EmbeddedStGraph, _gather, _topological_order


@dataclass(frozen=True)
class BitonicOrdering:
    """A vertex ranking plus the gap edges that certified it.

    ``order`` lists the vertices by rank, so ``order[r - 1]`` has rank
    ``r`` in ``1..n``.  ``augment_edges`` are the edges added between
    consecutive successors, one per corner without a path across it, in
    edge id order.
    """

    order: list[int]
    augment_edges: tuple[tuple[int, int], ...]

    @cached_property
    def pi(self) -> tuple[int, ...]:
        """``pi[v]`` is the rank of vertex ``v``; derived on first use."""
        pi = [0] * len(self.order)
        for rank, v in enumerate(self.order, 1):
            pi[v] = rank
        return tuple(pi)


@dataclass(frozen=True)
class RejectionWitness:
    """A forbidden configuration at vertex ``u``.

    With ``S(u) = v_1..v_m`` and 1-based pair positions ``i < j``: there
    are paths ``v_{i+1} ~> v_i`` and ``v_j ~> v_{j+1}``.
    """

    u: int
    i: int
    j: int


def _row_scan(g: EmbeddedStGraph, stop: bool = False):
    """``(witness, apex, split, extra, aug)``, walking a bitonic row once.

    The first conflict or None; the minimum split plan's apex and split
    edges, as lists; the split graph's gap edges by tail and in edge id
    order, dummy ``g.n + i`` being the head of the ``i``-th split edge.
    With ``stop`` the scan returns at the first conflict, and only the
    witness is then complete."""
    corner_dir, head, starts, n = g.corner_dir, g.head, g.out_start, g.n
    witness, apex, split, extra, aug = None, [1] * n, [], {}, []
    apex[g.t] = 0  # the one empty row
    for u in range(n):
        e0, e1 = starts[u], starts[u + 1]
        if e1 - e0 < 2:
            continue  # no corner
        first_desc = 0  # 1-based position of the first descent, if any
        for e in range(e0, e1 - 1):
            d = corner_dir[e]
            if d > 0:
                if first_desc:
                    break
                apex[u] = e - e0 + 2  # after the last rise, if bitonic
            elif d < 0:
                if not first_desc:
                    first_desc = e - e0 + 1
            else:
                vi, vnext = head[e], head[e + 1]
                a, b = (vnext, vi) if first_desc else (vi, vnext)
                aug.append((a, b))
                extra.setdefault(a, []).append(b)
        else:
            continue
        # a descent, then a rise: take the row's gap edges back and split it
        witness = witness or RejectionWitness(u, first_desc, e - e0 + 1)
        if stop:
            break
        if e - e0 > 1:
            for _ in range(corner_dir[e0:e].count(0)):
                extra[aug.pop()[0]].pop()
        # the apex: the first position at the minimum of descents less rises
        top, c, c_min = e0, 0, 0
        for e in range(e0, e1 - 1):
            c -= corner_dir[e]
            if c < c_min:
                c_min, top = c, e + 1
        apex[u] = top - e0 + 1
        # split the edge before each descent left of the apex and the one
        # after each rise right of it; a split clears the rise into it and
        # the descent out of it.  File towards the first descent kept
        desc = False
        for e in range(e0, e1):
            d, b = corner_dir[e - 1], head[e]
            if corner_dir[e] < 0 if e < top else e > top and d > 0:
                b = n + len(split)
                split.append(e)
            if e == e0 or d > 0 and b < n or d < 0 and a < n:  # kept
                desc = desc or d < 0
            else:
                x, y = (b, a) if desc else (a, b)
                aug.append((x, y))
                extra.setdefault(x, []).append(y)
            a = b
    return witness, apex, split, extra, aug


def find_bitonic_ordering(g: EmbeddedStGraph):
    """Recognize and order: returns a BitonicOrdering or RejectionWitness.

    In O(n + m); a rejection returns at the first conflicting row, with
    no row after it scanned.  Ranks follow Kahn's sort of ``g`` plus its
    gap edges on a ready stack: the vertex readied last is ranked next,
    with each vertex's successors taken clockwise and then its gap edges.
    """
    witness, _, _, extra, aug = _row_scan(g, stop=True)
    return witness or BitonicOrdering(
        _topological_order(g.out_start, g.head, extra), tuple(aug))


def _edge_ranks(g: EmbeddedStGraph, ord: BitonicOrdering):
    """``(tail_rank, head_rank)``, the ranks of each edge's ends in edge id
    order, when ``ord`` is a bitonic st-ordering of ``g``; else None.

    ``tail_rank`` ends in one extra 0.  Does not consult the gap edges.
    """
    order = ord.order
    # a vertex listed twice leaves another one unranked, at 0 in pi
    if (len(order) != g.n or min(order) < 0 or max(order) >= g.n
            or 0 in ord.pi):
        return None
    pi = ord.pi
    head_rank = _gather(pi, g.head)
    tail_rank = _gather(pi, g.tail) + (0,)
    if not all(map(lt, tail_rank, head_rank)):
        return None
    # one step per edge: 1 where the next head ranks lower, 2 where the
    # row ends.  A row's heads are distinct, so it is bitonic exactly when
    # no fall is followed by a rise
    steps = bytearray(map(gt, head_rank, head_rank[1:] + (0,)))
    for e in g.out_start[1:]:
        steps[e - 1] = 2
    return None if b"\x01\x00" in steps else (tail_rank, head_rank)


def verify_bitonic_ordering(g: EmbeddedStGraph, ord: BitonicOrdering) -> bool:
    """Independent check, without the gap edges: st-ordering plus bitonic
    successor lists."""
    return _edge_ranks(g, ord) is not None


def ordering_to_text(ord: BitonicOrdering) -> str:
    """One line ``rank v`` per vertex; gap edges as comments."""
    lines = [f"{rank} {v}" for rank, v in enumerate(ord.order, 1)]
    for a, b in ord.augment_edges:
        lines.append(f"# aug {a} {b}")
    return "\n".join(lines) + "\n"


def witness_to_text(w: RejectionWitness) -> str:
    return f"reject {w.u} {w.i} {w.j}\n"
