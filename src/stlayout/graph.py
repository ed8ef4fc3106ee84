"""Embedded planar st-graphs: construction, validation and face structure.

A graph is described by its clockwise successor lists alone.  One pass
over them checks each successor, counts in-degrees and flattens them;
one sweep over the vertices in topological order, keeping the frontier
of pending edges from left to right, derives the first and last in-edge
of every vertex and the path direction across every corner.  The checks:

  * no self-loops, no parallel edges
  * single source ``s``, single sink ``t``
  * acyclic
  * the incoming edges of every vertex are contiguous on the frontier when
    it is placed

A passing sweep draws the graph upward and planar, so every inner face has
exactly one source and one sink, ``s`` and ``t`` lie on the outer face and
Euler's formula holds; see :func:`_frontier_sweep`.  The graph is
stored once, in flat arrays; see :class:`EmbeddedStGraph`.  The faces
themselves are a view derived on demand by :func:`compute_faces`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain, compress, repeat
from operator import eq, itemgetter

from .errors import (GraphFormatError, MultipleSourcesOrSinks, NotAcyclic,
                     NotPlanarEmbedding, ParallelEdge)

VertexId = int


def _gc_paused(fn):
    """Run ``fn`` with the cyclic garbage collector paused.

    The pipeline builds hundreds of thousands of long-lived tuples and
    lists but no reference cycles, so collections during a call free
    nothing; refcounting frees every temporary.  The caller's state is
    restored on return and on exceptions, and a call made with the
    collector already off (a nested call, or a caller's own pause)
    leaves it alone.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _gather(seq, ids) -> tuple:
    """``tuple(seq[i] for i in ids)``, in one C-level call when ``ids``
    holds two or more indices (``itemgetter`` returns a bare item for one
    index and takes no call for none)."""
    if len(ids) > 1:
        return itemgetter(*ids)(seq)
    return tuple(map(seq.__getitem__, ids))


@dataclass(frozen=True)
class EmbeddedStGraph:
    """Immutable embedded planar st-graph in flat arrays.

    Edges carry dense ids, numbered by tail and then clockwise: the
    out-edges of ``u`` are ``out_start[u] .. out_start[u + 1] - 1``, so
    ``head`` read in id order is every successor list, leftmost first.
    ``first_in[v]`` and ``last_in[v]`` are the leftmost and rightmost
    in-edges of ``v`` (-1 at ``s``); its in-edges lie between them on the
    frontier of the sweep that built the graph.
    ``corner_dir[e]`` is the path direction across the corner after ``e``,
    read off the sink of the face there: ``+1`` for a path ``head[e] ~>
    head[e + 1]`` (left to right), ``-1`` for one ``head[e + 1] ~> head[e]``
    and ``0`` for none or when ``e`` is its tail's last out-edge.
    """

    n: int
    s: VertexId
    t: VertexId
    tail: tuple[VertexId, ...]
    head: tuple[VertexId, ...]
    out_start: tuple[int, ...]
    first_in: tuple[int, ...]
    last_in: tuple[int, ...]
    corner_dir: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.tail)


@dataclass(frozen=True)
class FaceIndex:
    """Face structure of an embedded planar st-graph.

    Dart ``2*e`` traverses edge ``e`` from tail to head with the face
    ``face_of_dart[2*e]`` on its left; dart ``2*e + 1`` traverses it back,
    and ``face_of_dart[2*e + 1]`` is the face right of ``e``.  When ``e``
    is not the last out-edge of its tail, that face is the inner face at
    the corner between ``e`` and the clockwise-next out-edge ``e + 1``.
    Faces are numbered in the order of their first dart.  The outer face
    has no source or sink (``-1``).
    """

    face_source: tuple[int, ...]
    face_sink: tuple[int, ...]
    outer_face: int
    face_of_dart: tuple[int, ...]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The darts of each face, in increasing id order."""
        darts = [[] for _ in self.face_source]
        for d, f in enumerate(self.face_of_dart):
            darts[f].append(d)
        return tuple(map(tuple, darts))


def _topological_order(out_start, head, extra=None):
    """Kahn's topological order, last-ready-first, in O(n + m) time.

    The successors of ``u`` are ``head[out_start[u]:out_start[u + 1]]``,
    clockwise, then ``extra.get(u, ())``.  Ready vertices wait on a stack,
    at first in id order; the one readied last is placed next.
    """
    extra = extra or {}
    deg = [0] * (len(out_start) - 1)
    for v in chain(head, chain.from_iterable(extra.values())):
        deg[v] += 1
    ready = [v for v, d in enumerate(deg) if d == 0]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        # two loops: joining the two lists would cost a copy per vertex
        for v in head[out_start[u]:out_start[u + 1]]:
            deg[v] -= 1
            if deg[v] == 0:
                ready.append(v)
        for v in extra.get(u, ()):
            deg[v] -= 1
            if deg[v] == 0:
                ready.append(v)
    if len(order) != len(deg):
        raise NotAcyclic("successor lists contain a directed cycle")
    return order


def _frontier_sweep(s, head, out_start, in_deg):
    """First and last in-edges and corner directions, in one frontier sweep.

    The frontier holds the pending edges (tail placed, head not) from left
    to right as a doubly linked list over edge ids.  Each gap between two
    adjacent frontier edges is an open inner face.  Placing ``v`` requires
    its incoming edges to form one contiguous block, as long as its
    in-degree; the block's two ends are the first and last in-edges of
    ``v``.  The faces inside the block close with sink ``v``, and the
    out-edges of ``v`` replace the block.

    The directions are read off the block.  A face's left chain enters
    its sink by an in-edge other than the last, its right chain by one
    other than the first (:func:`_face_chains`).  So ``v`` is the sink of
    the corner after each of its in-edges but the last (-1) and of the
    corner before each but the first (+1).  Writes after a tail's last
    out-edge hit no corner; those slots are reset to 0 after the sweep.

    Vertices are placed in a topological order: ``v`` is ready once its
    last in-edge reaches the frontier, and ready vertices are placed last
    in, first out.  In a planar st-graph the in-edge ends and the faces
    do not depend on which topological order the sweep follows.  A vertex
    that never becomes ready lies on or after a directed cycle.  When an
    in-block is not contiguous, a full toposort first looks for a cycle,
    so that a cycle is reported first, as :func:`build_graph` promises;
    this runs on the failure path only.

    A passing sweep yields a planar st-graph embedding.  It builds an
    upward drawing: every vertex is placed above the frontier line and
    joined to a contiguous block of it, so no two edges cross.  ``s`` is
    the only vertex without in-edges and comes first; every other vertex
    has an out-edge, so the frontier stays non-empty until ``t``, which
    comes last and closes the whole frontier.  Hence every inner face
    opens once, at its source corner, and closes once, at its sink; the
    outer face holds ``s`` and ``t``; and there are ``1 + sum(outdeg - 1)
    = m - n + 2`` faces, as Euler's formula requires.
    """
    m = len(head)
    # the out-edges of one tail start linked to each other; placing the
    # tail only sets the two ends of the run
    nxt = list(range(1, m + 1))
    prv = list(range(-1, m - 1))
    corner_dir = [0] * m
    first_in = [-1] * len(in_deg)
    last_in = first_in[:]
    waiting = in_deg[:]  # in-edges of each vertex not yet on the frontier
    ready = []  # per ready vertex, the in-edge that reached the frontier last

    f0, f1 = out_start[s], out_start[s + 1] - 1
    prv[f0] = nxt[f1] = -1
    while True:
        for f in range(f0, f1 + 1):
            w = head[f]
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(f)
        if not ready:
            break
        lo = ready.pop()
        v = head[lo]
        left = prv[lo]
        while left >= 0 and head[left] == v:
            lo = left
            left = prv[lo]
        # the block of k edges runs from lo to last
        first_in[v] = last = lo
        k = 1
        right = nxt[lo]
        while right >= 0 and head[right] == v:
            # v is the sink of the corners after last and before right
            corner_dir[last] = -1
            corner_dir[right - 1] = 1
            k += 1
            last = right
            right = nxt[right]
        if k != in_deg[v]:
            _topological_order(out_start, head)  # raises on a cycle
            raise NotPlanarEmbedding(
                f"incoming edges of {v} are not consecutive on the frontier")
        last_in[v] = last
        f0, f1 = out_start[v], out_start[v + 1] - 1
        if f0 <= f1:
            prv[f0], nxt[f1] = left, right
            if left >= 0:
                nxt[left] = f0
            if right >= 0:
                prv[right] = f1
    if any(waiting):
        raise NotAcyclic("successor lists contain a directed cycle")
    for e in out_start[1:]:
        corner_dir[e - 1] = 0  # a tail's last out-edge has no corner after it
    return tuple(first_in), tuple(last_in), tuple(corner_dir)


@_gc_paused
def build_graph(n: int, s: VertexId, t: VertexId,
                out_rotation) -> EmbeddedStGraph:
    """Validate successor lists and return the embedded graph.

    Raises a specific :class:`StGraphError` subclass naming the first
    violated invariant.
    """
    if n < 2:
        raise GraphFormatError("need at least 2 vertices")
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise GraphFormatError("invalid s/t")
    if len(out_rotation) != n:
        raise GraphFormatError("successor lists must cover every vertex")
    tail, head, out_start = [], [], [0]
    in_deg, row_of = [0] * n, [-1] * n
    for u, row in enumerate(out_rotation):
        for v in row:
            if not (0 <= v < n):
                raise GraphFormatError(f"successor {v} of {u} out of range")
            if v == u:
                raise ParallelEdge(f"self-loop at {u}")
            if row_of[v] == u:  # the last row that named v
                raise ParallelEdge(f"parallel edge ({u}, {v})")
            row_of[v] = u
            in_deg[v] += 1
        tail += repeat(u, len(row))
        head += row
        out_start.append(len(head))

    for v in range(n):
        if in_deg[v] == 0 and v != s:
            raise MultipleSourcesOrSinks(f"vertex {v} is a second source")
        if out_start[v] == out_start[v + 1] and v != t:
            raise MultipleSourcesOrSinks(f"vertex {v} is a second sink")
    if in_deg[s] != 0:
        raise MultipleSourcesOrSinks("s has incoming edges")
    if out_start[t] != out_start[t + 1]:
        raise MultipleSourcesOrSinks("t has outgoing edges")

    first_in, last_in, corner_dir = _frontier_sweep(s, head, out_start,
                                                    in_deg)

    return EmbeddedStGraph(
        n=n, s=s, t=t, tail=tuple(tail), head=tuple(head),
        out_start=tuple(out_start), first_in=first_in, last_in=last_in,
        corner_dir=corner_dir,
    )


def _face_chains(g: EmbeddedStGraph):
    """Yield ``(c, left, right)`` per inner face: its source corner, between
    out-edges ``c`` and ``c + 1``, and its two boundary chains of edge ids.
    The left chain is ``c`` and then each vertex's last out-edge, the right
    one ``c + 1`` and then each first out-edge.  A chain ends at the face's
    sink, the first vertex that it enters other than by that vertex's last
    (left chain) or first (right chain) in-edge.  O(m) in all.
    """
    tail, head, out_start = g.tail, g.head, g.out_start
    first_in, last_in = g.first_in, g.last_in
    for c in compress(range(g.m - 1), map(eq, tail, tail[1:])):
        left, e = [c], c
        while last_in[v := head[e]] == e:
            e = out_start[v + 1] - 1
            left.append(e)
        right, e = [c + 1], c + 1
        while first_in[v := head[e]] == e:
            e = out_start[v]
            right.append(e)
        yield c, left, right


def compute_faces(g: EmbeddedStGraph) -> FaceIndex:
    """Face structure of ``g``, derived from its arrays in O(m) time.

    Dart ``2e`` runs along the face left of edge ``e``, dart ``2e + 1``
    along the face right of it.  An inner face lies right of its left
    chain and left of its right chain (:func:`_face_chains`); every other
    dart is on the outer face.  Nothing is cached on ``g``.
    """
    m, head = g.m, g.head
    # a face is named by its source corner, the outer face by m
    face_of_dart = [m] * (2 * m)
    sink = [-1] * (m + 1)
    for c, left, right in _face_chains(g):
        for e in left:
            face_of_dart[2 * e + 1] = c
        for e in right:
            face_of_dart[2 * e] = c
        sink[c] = head[left[-1]]
    # number the faces in the order of their first dart
    fid = {c: f for f, c in enumerate(dict.fromkeys(face_of_dart))}
    return FaceIndex(
        face_source=_gather(g.tail + (-1,), fid),
        face_sink=_gather(sink, fid),
        outer_face=fid[m],
        face_of_dart=_gather(fid, face_of_dart),
    )
