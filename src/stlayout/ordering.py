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
from operator import ge, lt

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


def is_bitonic(seq) -> bool:
    """True iff ``seq`` strictly rises to its first maximum and never
    rises after it: no step that does not rise is followed by one that
    does.  For pairwise distinct elements, a strict rise and then a strict
    fall.
    """
    seq = tuple(seq)  # no copy of a tuple, such as a row of ranks
    top = seq.index(max(seq)) if seq else 0
    return (all(map(lt, seq[:top], seq[1:top + 1]))
            and all(map(ge, seq[top:], seq[top + 1:])))


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


def verify_bitonic_ordering(g: EmbeddedStGraph, ord: BitonicOrdering) -> bool:
    """Independent check: st-ordering plus bitonic successor lists.

    Does not consult the augmentation edges.
    """
    order = ord.order
    if len(order) != g.n or min(order) < 0 or max(order) >= g.n:
        return False
    pi = ord.pi
    if 0 in pi:  # a vertex listed twice leaves another one unranked
        return False
    ranks = _gather(pi, g.head)
    if not all(map(lt, _gather(pi, g.tail), ranks)):
        return False
    # a row of at most two distinct ranks is always bitonic
    starts = g.out_start
    return all(is_bitonic(ranks[a:b]) for a, b in zip(starts, starts[1:])
               if b - a > 2)


def ordering_to_text(g: EmbeddedStGraph, ord: BitonicOrdering) -> str:
    """One line ``rank v`` per vertex; gap edges as comments."""
    lines = [f"{rank} {v}" for rank, v in enumerate(ord.order, 1)]
    for a, b in ord.augment_edges:
        lines.append(f"# aug {a} {b}")
    return "\n".join(lines) + "\n"


def witness_to_text(w: RejectionWitness) -> str:
    return f"reject {w.u} {w.i} {w.j}\n"
