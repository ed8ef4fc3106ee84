"""Recognition of bitonic st-orderings and their computation.

The recognition pass walks every successor list once, reading the path
direction between consecutive successors from the graph's ``corner_dir``.
Its gap edges make every successor list bitonic under any topological
order of the augmented graph; Kahn's sort on a ready stack ranks the
vertices in linear time.  A graph is rejected exactly when some successor
list contains a right-to-left path followed by a left-to-right path.
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


def find_bitonic_ordering(g: EmbeddedStGraph):
    """Recognize and order: returns a BitonicOrdering or RejectionWitness.

    In O(n + m).  Ranks follow Kahn's sort of ``g`` plus its gap edges on a
    ready stack: the vertex readied last is ranked next, with each vertex's
    successors taken clockwise and then its gap edges.
    """
    corner_dir, head, starts = g.corner_dir, g.head, g.out_start

    aug: list[tuple[int, int]] = []
    extra: dict[int, list[int]] = {}  # the gap edges, by tail
    for u in range(g.n):
        e0, e1 = starts[u], starts[u + 1]
        first_desc = 0  # 1-based position of the first descent, if any
        for e in range(e0, e1 - 1):
            d = corner_dir[e]
            if d > 0:
                if first_desc:
                    return RejectionWitness(u=u, i=first_desc, j=e - e0 + 1)
            elif d < 0:
                if not first_desc:
                    first_desc = e - e0 + 1
            else:
                vi, vnext = head[e], head[e + 1]
                a, b = (vnext, vi) if first_desc else (vi, vnext)
                aug.append((a, b))
                extra.setdefault(a, []).append(b)
    return BitonicOrdering(order=_topological_order(starts, head, extra),
                           augment_edges=tuple(aug))


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
