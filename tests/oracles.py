"""Brute-force and reference oracles, independent of the production passes.

* ``dart_trace_faces``: the face structure of a rotation system, traced
  dart by dart and classified face by face, with Euler's formula and the
  per-face source/sink checks.  It is the reference for ``FaceIndex``.
* ``exists_bitonic_bruteforce``: all topological orderings.
* ``minimum_splits_bruteforce``: all edge subsets up to a budget.
* ``face_sink``: the sink of the face between two consecutive successors.
* ``orientation``, ``on_segment`` and ``segments_properly_intersect``:
  exact integer predicates for segments on the grid, with no floating
  point in any decision.
* ``all_pairs_intersection``: the first properly intersecting pair of
  pieces over all pairs, the reference for the validator's sweep.
"""

from __future__ import annotations

import itertools

from stlayout import (BitonicOrdering, EmbeddedStGraph, FaceIndex,
                      StGraphError, apply_splits, find_bitonic_ordering,
                      is_bitonic)
from stlayout.splitting import SplitPlan


class TooLarge(Exception):
    """A brute-force oracle was asked to process an instance beyond its
    configured size bound."""


class NotEmbedded(StGraphError):
    """The rotation system is not that of a planar st-graph."""


def dart_trace_faces(n, s, t, succ, in_ltr):
    """Trace and classify the faces of a rotation system.

    ``succ[u]`` is the clockwise successor list of ``u`` and ``in_ltr[v]``
    the left-to-right list of edge ids into ``v``, where the edges are
    numbered by tail, then successor position.  The full clockwise
    rotation at ``v`` is its out-edges, then its in-edges from right to
    left; following a dart into ``v``, the face continues along the
    clockwise-next edge at ``v``.  Dart ``2*e`` traverses edge ``e`` from
    tail to head, dart ``2*e + 1`` the other way.  Returns a dict with
    the ``FaceIndex`` fields, ``faces`` holding each dart cycle in
    traversal order.  Raises ``NotEmbedded`` when Euler's formula fails,
    an inner face has other than one source and one sink, a corner of a
    vertex other than ``s`` lies on the outer face, or ``s`` or ``t`` lies
    off the outer face.
    """
    tail, head, out_edge_ids = [], [], []
    for u in range(n):
        out_edge_ids.append(list(range(len(tail), len(tail) + len(succ[u]))))
        for v in succ[u]:
            tail.append(u)
            head.append(v)
    m = len(tail)

    rot_pos_tail = [0] * m
    rot_pos_head = [0] * m
    rot = [None] * n
    for v in range(n):
        out = out_edge_ids[v]
        inc = list(in_ltr[v])[::-1]
        rot[v] = out + inc
        for i, e in enumerate(out):
            rot_pos_tail[e] = i
        for i, e in enumerate(inc):
            rot_pos_head[e] = len(out) + i

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

    outer = face_of_dart[2 * out_edge_ids[s][-1] + 1]
    if n - m + len(faces) != 2:
        raise NotEmbedded(f"Euler check failed: n={n} m={m} f={len(faces)}")

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
            in_points_in = head[e_in] == w
            out_points_out = tail[e_out] == w
            if not in_points_in and out_points_out:
                # corner between two consecutive out-edges of w
                if fid == outer:
                    if w != s:
                        raise NotEmbedded(
                            f"corner of vertex {w} lies on the outer face")
                elif face_source[fid] >= 0:
                    raise NotEmbedded(f"inner face {fid} has two sources")
                else:
                    face_source[fid] = w
                    corner_face[e_in] = fid
            elif in_points_in and not out_points_out and fid != outer:
                if face_sink[fid] >= 0:
                    raise NotEmbedded(f"inner face {fid} has two sinks")
                face_sink[fid] = w
    for fid in range(len(faces)):
        if fid != outer and (face_source[fid] < 0 or face_sink[fid] < 0):
            raise NotEmbedded(f"inner face {fid} lacks a source or sink")
    if s not in outer_vertices or t not in outer_vertices:
        raise NotEmbedded("s and t must lie on the outer face")

    corner_dir = [0] * m
    for e, f in enumerate(corner_face):
        if f >= 0:
            w = face_sink[f]
            corner_dir[e] = (w == head[e + 1]) - (w == head[e])
    return dict(faces=tuple(faces), face_source=tuple(face_source),
                face_sink=tuple(face_sink), corner_dir=tuple(corner_dir),
                outer_face=outer,
                face_of_dart=tuple(face_of_dart))


def face_index_fields(fi: FaceIndex) -> dict:
    """``fi`` in the form ``dart_trace_faces`` returns, face count for
    faces (the trace keeps cycle order, ``FaceIndex`` keeps id order)."""
    return dict(faces=len(fi.faces), face_source=fi.face_source,
                face_sink=fi.face_sink, corner_dir=fi.corner_dir,
                outer_face=fi.outer_face,
                face_of_dart=fi.face_of_dart)


def face_sink(fi: FaceIndex, g: EmbeddedStGraph, u: int, i: int) -> int:
    """Sink of the inner face between successors ``i`` and ``i+1`` of ``u``.

    ``i`` is 1-based: ``1 <= i < len(S(u))``.  The result decides path
    existence between the two successors: it equals the right successor iff
    there is a path left-to-right, the left successor iff right-to-left,
    and any other vertex iff no path exists between them.
    """
    e = g.out_start[u] + i - 1  # the corner after e is right of e
    if not (1 <= i < g.out_start[u + 1] - g.out_start[u]):
        raise IndexError(f"successor position {i} out of range at {u}")
    return fi.face_sink[fi.face_of_dart[2 * e + 1]]


def exists_bitonic_bruteforce(g: EmbeddedStGraph, max_n: int = 10) -> bool:
    """Enumerate all topological orderings; True iff one is bitonic.

    Guarded against factorial blowup.
    """
    if g.n > max_n:
        raise TooLarge(f"{g.n} vertices exceeds the oracle bound {max_n}")
    n = g.n
    in_deg = [0] * n
    for v in g.head:
        in_deg[v] += 1
    pi = [0] * n

    def rec(rank: int) -> bool:
        if rank > n:
            return all(is_bitonic([pi[v] for v in g.succ[u]])
                       for u in range(n))
        for u in range(n):
            if in_deg[u] == 0 and pi[u] == 0:
                pi[u] = rank
                for v in g.succ[u]:
                    in_deg[v] -= 1
                if rec(rank + 1):
                    return True
                for v in g.succ[u]:
                    in_deg[v] += 1
                pi[u] = 0
        return False

    return rec(1)


def minimum_splits_bruteforce(g: EmbeddedStGraph, budget: int,
                              max_edges: int = 14) -> int:
    """Smallest k <= budget of edge splits enabling a bitonic st-ordering.

    Exhaustive over k-subsets of edges; returns ``budget + 1`` if no subset
    within budget works.
    """
    if g.m > max_edges:
        raise TooLarge(f"{g.m} edges exceeds the oracle bound {max_edges}")
    all_edges = g.edges
    for k in range(budget + 1):
        for subset in itertools.combinations(all_edges, k):
            res = apply_splits(g, SplitPlan(apex=tuple([0] * g.n),
                                            split_edges=subset))
            if isinstance(find_bitonic_ordering(res.graph), BitonicOrdering):
                return k
    return budget + 1


Point = tuple[int, int]


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b - a) x (c - a): +1 left turn, -1 right
    turn, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """p lies on the closed segment ab (collinearity included)."""
    if orientation(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_properly_intersect(p1: Point, p2: Point,
                                q1: Point, q2: Point) -> bool:
    """True iff the closed segments share a point that is not a shared
    endpoint.

    Touching at a common endpoint is allowed; an endpoint in the interior
    of the other segment, interior crossings, and collinear overlap are
    all proper.
    """
    shared = {p1, p2} & {q1, q2}
    if len(shared) == 2:
        return True  # identical or reversed segments overlap fully
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)

    if shared:
        (c,) = shared
        # only the shared endpoint may lie on both segments
        for p in (p1, p2):
            if p != c and on_segment(q1, q2, p):
                return True
        for q in (q1, q2):
            if q != c and on_segment(p1, p2, q):
                return True
        return False

    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (on_segment(p1, p2, q1) or on_segment(p1, p2, q2)
            or on_segment(q1, q2, p1) or on_segment(q1, q2, p2))


def all_pairs_intersection(pieces):
    """Oracle: the first properly intersecting index pair over all pairs."""
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if segments_properly_intersect(*pieces[i], *pieces[j]):
                return i, j
    return None
