"""Embedded planar st-graphs: construction, validation and face structure.

A graph is described by its clockwise successor lists alone.  The incoming
edge order at every vertex (and with it the full rotation system) is derived
during construction by sweeping the vertices in topological order while
maintaining the left-to-right frontier of pending edges.  Face cycles are
then traced from the rotation system and all defining invariants of a planar
st-graph are checked:

  * acyclic, single source ``s``, single sink ``t``
  * no self-loops, no parallel edges
  * the traced faces satisfy Euler's formula
  * every inner face has exactly one face-source and one face-sink
  * ``t`` lies on the outer face (``s`` does by convention: the outer face
    is the one at the wrap-around corner of ``s``)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import (
    FaceWithMultipleSinks,
    GraphFormatError,
    MultipleSourcesOrSinks,
    NotAcyclic,
    NotPlanarEmbedding,
    ParallelEdge,
    StGraphError,
    StNotOnOuterFace,
)

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
    topo_order: tuple[VertexId, ...]
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

    Faces are dart cycles; dart ``2*e`` traverses edge ``e`` from tail to
    head, dart ``2*e + 1`` the other way.  ``corner_face[e]`` is the inner
    face at the corner between out-edge ``e`` and the clockwise-next
    out-edge ``e + 1`` of the same tail (``-1`` for the last successor).
    ``corner_dir[e]`` is the path direction across that corner, read off
    the face's sink: ``+1`` for a path ``head[e] ~> head[e + 1]`` (left to
    right), ``-1`` for a path ``head[e + 1] ~> head[e]`` (right to left)
    and ``0`` when there is no path or ``e`` is the last successor.
    """

    faces: tuple[tuple[int, ...], ...]
    face_source: tuple[int, ...]
    face_sink: tuple[int, ...]
    corner_face: tuple[int, ...]
    corner_dir: tuple[int, ...]
    outer_face: int
    face_of_dart: tuple[int, ...]

    def inner_faces(self) -> list[int]:
        return [f for f in range(len(self.faces)) if f != self.outer_face]


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


def _derive_in_order(n, s, out_edge_ids, head, order, in_deg):
    """Left-to-right incoming edge order per vertex, via a frontier sweep.

    The frontier holds the pending edges (tail placed, head not) from left
    to right as a doubly linked list over edge ids.  The incoming edges of
    the next vertex must form a contiguous block; its left-to-right order
    is the derived predecessor order.
    """
    m = len(head)
    nxt = [-1] * m
    prv = [-1] * m
    in_ltr = [()] * n
    some_edge_into = [-1] * n

    out = out_edge_ids[s]
    for a, b in zip(out, out[1:]):
        nxt[a], prv[b] = b, a
    for e in out:
        some_edge_into[head[e]] = e

    for v in order:
        if v == order[0]:
            if v != s:
                raise MultipleSourcesOrSinks(
                    f"vertex {v} has in-degree 0 but is not s")
            continue
        if in_deg[v] == 0:
            raise MultipleSourcesOrSinks(
                f"vertex {v} has in-degree 0 but is not s")
        e0 = some_edge_into[v]
        lo = e0
        while prv[lo] >= 0 and head[prv[lo]] == v:
            lo = prv[lo]
        hi = e0
        while nxt[hi] >= 0 and head[nxt[hi]] == v:
            hi = nxt[hi]
        block = [lo]
        while block[-1] != hi:
            block.append(nxt[block[-1]])
        if len(block) != in_deg[v]:
            raise NotPlanarEmbedding(
                f"incoming edges of {v} are not consecutive on the frontier")
        in_ltr[v] = tuple(block)
        left, right = prv[lo], nxt[hi]
        repl = out_edge_ids[v]
        if repl:
            f0, f1 = repl[0], repl[-1]
            for a, b in zip(repl, repl[1:]):
                nxt[a], prv[b] = b, a
            prv[f0], nxt[f1] = left, right
            if left >= 0:
                nxt[left] = f0
            if right >= 0:
                prv[right] = f1
            for e in repl:
                some_edge_into[head[e]] = e
        else:
            if left >= 0:
                nxt[left] = right
            if right >= 0:
                prv[right] = left
    return in_ltr


def _trace_faces(n, s, out_edge_ids, in_ltr, tail, head):
    """Trace all face cycles of the rotation system.

    Full clockwise rotation at ``v`` = out-edges, then incoming edges from
    right to left.  Following a dart into ``v``, the face continues along
    the clockwise-next edge at ``v``.
    """
    m = len(tail)
    rot_pos_tail = [0] * m
    rot_pos_head = [0] * m
    rot = [None] * n
    for v in range(n):
        out = out_edge_ids[v]
        inc = in_ltr[v][::-1]
        r = list(out) + list(inc)
        rot[v] = r
        for i, e in enumerate(out):
            rot_pos_tail[e] = i
        base = len(out)
        for i, e in enumerate(inc):
            rot_pos_head[e] = base + i

    face_of_dart = [-1] * (2 * m)
    faces = []
    for start in range(2 * m):
        if face_of_dart[start] >= 0:
            continue
        fid = len(faces)
        cycle = []
        d = start
        while face_of_dart[d] < 0:
            face_of_dart[d] = fid
            cycle.append(d)
            e = d >> 1
            w = head[e] if d & 1 == 0 else tail[e]
            pos = rot_pos_head[e] if d & 1 == 0 else rot_pos_tail[e]
            r = rot[w]
            e2 = r[(pos + 1) % len(r)]
            d = 2 * e2 if tail[e2] == w else 2 * e2 + 1
        faces.append(tuple(cycle))
    return faces, face_of_dart


def _classify_faces(g_n, s, t, faces, face_of_dart, tail, head,
                    out_edge_ids, m):
    """Outer-face identification, per-face source/sink, corner lookup."""
    e_last = out_edge_ids[s][-1]
    outer = face_of_dart[2 * e_last + 1]

    if g_n - m + len(faces) != 2:
        raise NotPlanarEmbedding(
            f"Euler check failed: n={g_n} m={m} f={len(faces)}")

    face_source = [-1] * len(faces)
    face_sink = [-1] * len(faces)
    corner_face = [-1] * m
    outer_vertices = set()

    for fid, cycle in enumerate(faces):
        k = len(cycle)
        for idx in range(k):
            d_in = cycle[idx]
            d_out = cycle[(idx + 1) % k]
            e_in = d_in >> 1
            w = head[e_in] if d_in & 1 == 0 else tail[e_in]
            if fid == outer:
                outer_vertices.add(w)
            e_out = d_out >> 1
            in_points_in = head[e_in] == w  # true directed edge enters w
            out_points_out = tail[e_out] == w
            if (not in_points_in) and out_points_out:
                # corner between two consecutive out-edges of w
                if fid == outer:
                    if w != s:
                        raise StGraphError(
                            f"corner of vertex {w} lies on the outer face")
                    # the wrap-around corner of s: not a successor corner
                elif face_source[fid] >= 0:
                    raise FaceWithMultipleSinks(
                        f"inner face {fid} has more than one source")
                else:
                    face_source[fid] = w
                    corner_face[e_in] = fid
            elif in_points_in and not out_points_out:
                if fid != outer:
                    if face_sink[fid] >= 0:
                        raise FaceWithMultipleSinks(
                            f"inner face {fid} has more than one sink")
                    face_sink[fid] = w

    for fid in range(len(faces)):
        if fid != outer and (face_source[fid] < 0 or face_sink[fid] < 0):
            raise FaceWithMultipleSinks(
                f"inner face {fid} lacks a source or sink")
    if t not in outer_vertices or s not in outer_vertices:
        raise StNotOnOuterFace("s and t must lie on the outer face")

    # the sink of the face between two consecutive successors is the right
    # one iff a path runs left to right, the left one iff right to left
    corner_dir = [0] * m
    for e, f in enumerate(corner_face):
        if f >= 0:
            w = face_sink[f]
            if w == head[e + 1]:
                corner_dir[e] = 1
            elif w == head[e]:
                corner_dir[e] = -1

    return FaceIndex(
        faces=tuple(faces),
        face_source=tuple(face_source),
        face_sink=tuple(face_sink),
        corner_face=tuple(corner_face),
        corner_dir=tuple(corner_dir),
        outer_face=outer,
        face_of_dart=tuple(face_of_dart),
    )


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
    for u in range(n):
        ids = []
        for v in succ[u]:
            ids.append(len(tail))
            tail.append(u)
            head.append(v)
        out_edge_ids.append(tuple(ids))
    m = len(tail)
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
    in_ltr = _derive_in_order(n, s, out_edge_ids, head, order, in_deg)
    faces, face_of_dart = _trace_faces(n, s, out_edge_ids, in_ltr, tail, head)
    fi = _classify_faces(n, s, t, faces, face_of_dart, tail, head,
                         out_edge_ids, m)

    return EmbeddedStGraph(
        n=n, s=s, t=t, succ=succ,
        tail=tuple(tail), head=tuple(head),
        out_edge_ids=tuple(out_edge_ids),
        in_edge_ids_ltr=tuple(in_ltr),
        topo_order=tuple(order),
        _face_index=fi,
    )


def compute_faces(g: EmbeddedStGraph) -> FaceIndex:
    """Face structure of ``g`` (cached from construction)."""
    return g._face_index


def face_sink(fi: FaceIndex, g: EmbeddedStGraph, u: VertexId,
              i: int) -> VertexId:
    """Sink of the inner face between successors ``i`` and ``i+1`` of ``u``.

    ``i`` is 1-based: ``1 <= i < len(S(u))``.  The result decides path
    existence between the two successors: it equals the right successor iff
    there is a path left-to-right, the left successor iff right-to-left,
    and any other vertex iff no path exists between them.
    """
    row = g.out_edge_ids[u]
    if not (1 <= i < len(row)):
        raise IndexError(f"successor position {i} out of range at {u}")
    return fi.face_sink[fi.corner_face[row[i - 1]]]


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
