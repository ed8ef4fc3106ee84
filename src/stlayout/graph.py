"""Embedded planar st-graphs: construction, validation and face structure.

A graph is described by its clockwise successor lists alone.  The incoming
edge order at every vertex (and with it the full rotation system) and the
faces are derived in one sweep over the vertices in topological order,
which maintains the left-to-right frontier of pending edges.  The checks:

  * no self-loops, no parallel edges
  * single source ``s``, single sink ``t``
  * acyclic
  * the incoming edges of every vertex are contiguous on the frontier when
    it is placed

A passing sweep draws the graph upward and planar, so every inner face has
exactly one source and one sink, ``s`` and ``t`` lie on the outer face and
Euler's formula holds; see :func:`_frontier_sweep`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from .errors import (GraphFormatError, MultipleSourcesOrSinks, NotAcyclic,
                     NotPlanarEmbedding, ParallelEdge)

VertexId = int


@dataclass(frozen=True)
class EmbeddedStGraph:
    """Immutable embedded planar st-graph.

    ``succ[u]`` is the clockwise successor list of ``u`` (leftmost first).
    Edges carry dense ids: edge ``e`` is ``(tail[e], head[e])`` and equals
    the ``pos``-th outgoing edge of its tail.  ``pred_ltr[v]`` lists the
    predecessors of ``v`` from left to right; the clockwise incoming
    rotation is its reverse.
    """

    n: int
    s: VertexId
    t: VertexId
    succ: tuple[tuple[VertexId, ...], ...]
    tail: tuple[VertexId, ...]
    head: tuple[VertexId, ...]
    out_edge_ids: tuple[tuple[int, ...], ...]
    in_edge_ids_ltr: tuple[tuple[int, ...], ...]
    _face_index: "FaceIndex" = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.tail)

    @property
    def edges(self) -> list[tuple[VertexId, VertexId]]:
        return list(zip(self.tail, self.head))

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return any(self.head[e] == v for e in self.out_edge_ids[u])

    def pred_ltr(self, v: VertexId) -> list[VertexId]:
        return [self.tail[e] for e in self.in_edge_ids_ltr[v]]

    def in_rotation(self, v: VertexId) -> list[int]:
        """Incoming edge ids in clockwise order around ``v``."""
        return list(reversed(self.in_edge_ids_ltr[v]))


@dataclass(frozen=True)
class FaceIndex:
    """Face structure of an embedded planar st-graph.

    Dart ``2*e`` traverses edge ``e`` from tail to head with the face
    ``face_of_dart[2*e]`` on its left; dart ``2*e + 1`` traverses it back,
    and ``face_of_dart[2*e + 1]`` is the face right of ``e``.  Faces are
    numbered in the order of their first dart.  The outer face has no
    source or sink (``-1``).  ``corner_face[e]`` is the inner face at the
    corner between out-edge ``e`` and the clockwise-next out-edge ``e + 1``
    of the same tail (``-1`` for the last successor).  ``corner_dir[e]``
    is the path direction across that corner, read off the face's sink:
    ``+1`` for a path ``head[e] ~> head[e + 1]`` (left to right), ``-1``
    for a path ``head[e + 1] ~> head[e]`` (right to left) and ``0`` when
    there is no path or ``e`` is the last successor.
    """

    face_source: tuple[int, ...]
    face_sink: tuple[int, ...]
    corner_face: tuple[int, ...]
    corner_dir: tuple[int, ...]
    outer_face: int
    face_of_dart: tuple[int, ...]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The darts of each face, in increasing id order."""
        darts = [[] for _ in self.face_source]
        for d, f in enumerate(self.face_of_dart):
            darts[f].append(d)
        return tuple(map(tuple, darts))

    def inner_faces(self) -> list[int]:
        return [f for f in range(len(self.face_source))
                if f != self.outer_face]


def _check_basic(n, s, t, out_rotation):
    if n < 2:
        raise GraphFormatError("need at least 2 vertices")
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise GraphFormatError("invalid s/t")
    if len(out_rotation) != n:
        raise GraphFormatError("successor lists must cover every vertex")
    for u, row in enumerate(out_rotation):
        seen = set()
        for v in row:
            if not (0 <= v < n):
                raise GraphFormatError(f"successor {v} of {u} out of range")
            if v == u:
                raise ParallelEdge(f"self-loop at {u}")
            if v in seen:
                raise ParallelEdge(f"parallel edge ({u}, {v})")
            seen.add(v)


def _topological_order(n, succ, in_deg):
    """Smallest-ready-vertex-id-first topological order (deterministic)."""
    deg = list(in_deg)
    ready = [v for v in range(n) if deg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            deg[v] -= 1
            if deg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != n:
        raise NotAcyclic("successor lists contain a directed cycle")
    return order


def _frontier_sweep(n, s, tail, head, out_edge_ids, order, in_deg):
    """Incoming edge order and face structure, in one frontier sweep.

    The frontier holds the pending edges (tail placed, head not) from left
    to right as a doubly linked list over edge ids.  Each gap between two
    adjacent frontier edges is an open face; the gap left of the leftmost
    and right of the rightmost edge is the outer face.  Placing ``v``
    requires its incoming edges to form one contiguous block, whose
    left-to-right order is the derived predecessor order.  The gaps inside
    the block close with sink ``v``; the out-edges of ``v`` replace the
    block, and the gap between out-edges ``e`` and ``e + 1`` opens with
    source ``v``.  Out-edges of one tail have consecutive ids, so that gap
    is named by ``e``, its corner, and the outer face by ``m``.

    A passing sweep yields a planar st-graph embedding.  It builds an
    upward drawing: every vertex is placed above the frontier line and
    joined to a contiguous block of it, so no two edges cross.  ``s`` is
    the only vertex without in-edges and comes first; every other vertex
    has an out-edge, so the frontier stays non-empty until ``t``, which
    comes last and closes the whole frontier.  Hence every inner face
    opens once, at its source corner, and closes once, at its sink; the
    outer face holds ``s`` and ``t``; and there are ``1 + sum(outdeg - 1)
    = m - n + 2`` faces, as Euler's formula requires.  The faces of the
    rotation system (out-edges clockwise, then in-edges right to left)
    are exactly these gaps: dart ``2e`` runs along the gap left of ``e``,
    dart ``2e + 1`` along the gap right of it.
    """
    m = len(head)
    outer = m
    # the out-edges of one tail start linked to each other and to their
    # corner gaps; placing the tail only sets the two ends of the run
    nxt = list(range(1, m + 1))
    prv = list(range(-1, m - 1))
    lgap = list(range(-1, m - 1))
    rgap = list(range(m))
    sink = [-1] * (m + 1)
    corner_dir = [0] * m
    in_ltr = [()] * n
    some_edge_into = dict(zip(head, range(m)))

    ids = out_edge_ids[s]
    prv[ids[0]] = nxt[ids[-1]] = -1
    lgap[ids[0]] = rgap[ids[-1]] = outer
    for v in order[1:]:
        lo = some_edge_into[v]
        left = prv[lo]
        while left >= 0 and head[left] == v:
            lo = left
            left = prv[lo]
        block = [lo]
        right = nxt[lo]
        while right >= 0 and head[right] == v:
            g = rgap[block[-1]]
            sink[g] = v
            corner_dir[g] = (head[g + 1] == v) - (head[g] == v)
            block.append(right)
            right = nxt[right]
        if len(block) != in_deg[v]:
            raise NotPlanarEmbedding(
                f"incoming edges of {v} are not consecutive on the frontier")
        in_ltr[v] = tuple(block)
        ids = out_edge_ids[v]
        if ids:
            f0, f1 = ids[0], ids[-1]
            prv[f0], nxt[f1] = left, right
            lgap[f0], rgap[f1] = lgap[lo], rgap[block[-1]]
            if left >= 0:
                nxt[left] = f0
            if right >= 0:
                prv[right] = f1

    face_of_dart = [0] * (2 * m)
    face_of_dart[0::2] = lgap
    face_of_dart[1::2] = rgap
    # number the faces in the order of their first dart
    fid = {g: f for f, g in enumerate(dict.fromkeys(face_of_dart))}
    source = tail + [-1]
    fi = FaceIndex(
        face_source=tuple(map(source.__getitem__, fid)),
        face_sink=tuple(map(sink.__getitem__, fid)),
        corner_face=tuple(map(fid.get, range(m), repeat(-1, m))),
        corner_dir=tuple(corner_dir),
        outer_face=fid[outer],
        face_of_dart=tuple(map(fid.__getitem__, face_of_dart)),
    )
    return in_ltr, fi


def build_graph(n: int, s: VertexId, t: VertexId,
                out_rotation) -> EmbeddedStGraph:
    """Validate successor lists and return the embedded graph.

    Raises a specific :class:`StGraphError` subclass naming the first
    violated invariant.
    """
    _check_basic(n, s, t, out_rotation)

    succ = tuple(tuple(row) for row in out_rotation)
    tail, head = [], []
    out_edge_ids = []
    for u, row in enumerate(succ):
        out_edge_ids.append(tuple(range(len(tail), len(tail) + len(row))))
        tail += repeat(u, len(row))
        head += row
    in_deg = [0] * n
    for v in head:
        in_deg[v] += 1

    for v in range(n):
        if in_deg[v] == 0 and v != s:
            raise MultipleSourcesOrSinks(f"vertex {v} is a second source")
        if not succ[v] and v != t:
            raise MultipleSourcesOrSinks(f"vertex {v} is a second sink")
    if in_deg[s] != 0:
        raise MultipleSourcesOrSinks("s has incoming edges")
    if succ[t]:
        raise MultipleSourcesOrSinks("t has outgoing edges")

    order = _topological_order(n, succ, in_deg)
    in_ltr, fi = _frontier_sweep(n, s, tail, head, out_edge_ids, order,
                                 in_deg)

    return EmbeddedStGraph(
        n=n, s=s, t=t, succ=succ,
        tail=tuple(tail), head=tuple(head),
        out_edge_ids=tuple(out_edge_ids),
        in_edge_ids_ltr=tuple(in_ltr),
        _face_index=fi,
    )


def compute_faces(g: EmbeddedStGraph) -> FaceIndex:
    """Face structure of ``g``, computed by the frontier sweep of
    :func:`build_graph`."""
    return g._face_index


def reachable(g: EmbeddedStGraph, u: VertexId, v: VertexId) -> bool:
    """Directed path u -> v?  Plain DFS, independent of the face structure."""
    if u == v:
        return True
    seen = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for x in g.succ[w]:
            if x == v:
                return True
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return False
