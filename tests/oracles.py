"""Brute-force and reference oracles, independent of the production passes.

* ``dart_trace_faces``: the face structure of a rotation system, traced
  dart by dart and classified face by face, with Euler's formula and the
  per-face source/sink checks.  It is the reference for ``compute_faces``
  and for the graph's ``corner_dir``.
* ``is_bitonic``: a sequence that strictly rises, then never rises.
* ``exists_bitonic_bruteforce``: all topological orderings.
* ``minimum_splits_bruteforce``: all edge subsets up to a budget.
* ``face_sink``: the sink of the face between two consecutive successors.
* ``gap_faces``: the inner face of every gap edge the ordering adds.
* ``in_order``: the left-to-right in-edges of every vertex, read off a
  plain frontier list; the graph stores only the two ends of each.
* ``succ``, ``edges``, ``pred_ltr`` and ``left_right_counts``: readable
  views of a graph's arrays and corner directions, for assertions.
* ``has_edge``, ``inner_faces``, ``reachable`` (a plain DFS) and
  ``corner_pos_at``: per-query helpers, and ``augmented_graph`` and
  ``add_random_chords``, the references built on them that rebuild a
  graph per inserted edge.
* ``generate_random_st_graph``: the seed generator's growth loop as first
  written, the reference for the columnar one.
* ``orientation``, ``on_segment`` and ``segments_properly_intersect``:
  exact integer predicates for segments on the grid, with no floating
  point in any decision.
* ``all_pairs_intersection``: the first properly intersecting pair of
  pieces over all pairs, the crossing oracle for the validator.
* ``drawn_rotation_matches``: whether every vertex's out-pieces turn
  strictly clockwise in successor order, the embedding oracle for the
  validator.
* ``listed_face_chains`` and ``faces_ordered_by_chains``: each inner
  face's chains listed to the in-edge test, on the subdivided graph
  rebuilt by ``build_graph``, and the validator's face check merged over
  them; the reference for ``validate._misordered_face``.
* ``drawing_of``: a drawing built from its vertex points and ``(e, p)``
  bends, the one way tests build a drawing by hand.
* ``first_conflict``, ``first_descent_gap_edges`` and
  ``counter_split_plan``: recognition up to the first conflict, the gap
  edges of an accepted graph and the per-row counter plan, each its own
  walk over the corners; the references for the row scan.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from stlayout import (BitonicOrdering, EmbeddedStGraph, FaceIndex,
                      GridDrawing, RejectionWitness, StGraphError,
                      apply_splits, build_graph, compute_faces,
                      find_bitonic_ordering)
from stlayout.generate import P_CHORD, P_VERTEX, GeneratorConfig
from stlayout.graph import _face_chains
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
    the ``FaceIndex`` fields and ``corner_dir``, ``faces`` holding each
    dart cycle in traversal order.  Raises ``NotEmbedded`` when Euler's
    formula fails, an inner face has other than one source and one sink,
    a corner of a vertex other than ``s`` lies on the outer face, or ``s``
    or ``t`` lies off the outer face.
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


def face_index_fields(g: EmbeddedStGraph) -> dict:
    """``compute_faces(g)`` and ``g.corner_dir`` in the form
    ``dart_trace_faces`` returns, face count for faces (the trace keeps
    cycle order, ``FaceIndex`` keeps id order)."""
    fi = compute_faces(g)
    return dict(faces=len(fi.faces), face_source=fi.face_source,
                face_sink=fi.face_sink, corner_dir=g.corner_dir,
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


def gap_faces(g: EmbeddedStGraph) -> tuple[int, ...]:
    """The face right of each out-edge ``e`` that is not its tail's last
    and has ``corner_dir[e] == 0``, in id order: for an accepted graph,
    the inner face that each of ``find_bitonic_ordering``'s gap edges is
    drawn into."""
    face_of_dart = compute_faces(g).face_of_dart
    return tuple(face_of_dart[2 * e + 1] for e in range(g.m - 1)
                 if g.tail[e] == g.tail[e + 1] and g.corner_dir[e] == 0)


def in_order(g: EmbeddedStGraph) -> list[list[int]]:
    """The in-edge ids of every vertex, from left to right.

    The vertices are placed in first-in, first-out Kahn order on a plain
    list of the pending edges, left to right.  Each vertex's in-edges
    must lie side by side there; they are its in-order, and its
    out-edges take their place.  O(m) per vertex.
    """
    head, starts = g.head, g.out_start
    waiting = [0] * g.n
    for v in head:
        waiting[v] += 1
    order = [[] for _ in range(g.n)]
    frontier: list[int] = []
    queue = deque([g.s])
    while queue:
        v = queue.popleft()
        at = [i for i, e in enumerate(frontier) if head[e] == v]
        i = at[0] if at else 0
        assert at == list(range(i, i + len(at))), f"in-edges of {v} apart"
        out = range(starts[v], starts[v + 1])
        order[v] = frontier[i:i + len(at)]
        frontier[i:i + len(at)] = out
        for e in out:
            waiting[head[e]] -= 1
            if not waiting[head[e]]:
                queue.append(head[e])
    return order


def succ(g: EmbeddedStGraph) -> list[list[int]]:
    """The clockwise successor list of each vertex, as new lists."""
    head, starts = g.head, g.out_start
    return [list(head[a:b]) for a, b in zip(starts, starts[1:])]


def edges(g: EmbeddedStGraph) -> list[tuple[int, int]]:
    """``(tail, head)`` of every edge, in id order."""
    return list(zip(g.tail, g.head))


def split_dummies(g: EmbeddedStGraph,
                  h: EmbeddedStGraph) -> dict[int, tuple[int, int]]:
    """``{d: (u, v)}`` for each dummy ``d`` of ``h``, a split graph of
    ``g``: the edge of ``g`` that ``d`` subdivides, read off ``h``'s
    arrays (the tail of ``d``'s in-edge, the head of its out-edge)."""
    return {d: (h.tail[h.first_in[d]], h.head[h.out_start[d]])
            for d in range(g.n, h.n)}


def pred_ltr(g: EmbeddedStGraph) -> list[list[int]]:
    """The predecessors of every vertex, from left to right."""
    return [[g.tail[e] for e in row] for row in in_order(g)]


def left_right_counts(g: EmbeddedStGraph, u: int):
    """Prefix path counts over the successor list of ``u``.

    Returns ``(L, R)`` with ``L[h-1]`` = number of right-to-left paths and
    ``R[h-1]`` = number of left-to-right paths between consecutive
    successors strictly before position ``h`` (``h`` in ``1..m``).
    """
    e0, e1 = g.out_start[u], g.out_start[u + 1]
    L, R = [0] * (e1 - e0), [0] * (e1 - e0)
    for i, d in enumerate(g.corner_dir[e0:e1 - 1], 1):
        L[i] = L[i - 1] + (d < 0)
        R[i] = R[i - 1] + (d > 0)
    return L, R


def has_edge(g: EmbeddedStGraph, u: int, v: int) -> bool:
    return v in g.head[g.out_start[u]:g.out_start[u + 1]]


def inner_faces(fi: FaceIndex) -> list[int]:
    return [f for f in range(len(fi.face_source)) if f != fi.outer_face]


def reachable(g: EmbeddedStGraph, u: int, v: int) -> bool:
    """Directed path u -> v?  Plain DFS, independent of the face structure."""
    if u == v:
        return True
    rows = succ(g)
    seen = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for x in rows[w]:
            if x == v:
                return True
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return False


def corner_pos_at(fi: FaceIndex, g: EmbeddedStGraph, f: int, x: int) -> int:
    """Successor-list position where an edge leaving ``x`` into face ``f``
    of ``fi = compute_faces(g)`` must be inserted to preserve the
    embedding; ``-1`` when ``x`` has no corner on ``f`` but its sink (or
    lies off ``f``).

    ``f`` is right of an out-edge ``e`` of ``x`` when ``x`` is its source or
    on its left boundary (insert after ``e``), and left of the first
    out-edge when ``x`` is on its right boundary (insert first).
    """
    face_of_dart = fi.face_of_dart
    e0, e1 = g.out_start[x], g.out_start[x + 1]
    for e in range(e0, e1):
        if face_of_dart[2 * e + 1] == f:
            return e - e0 + 1
    if e0 < e1 and face_of_dart[2 * e0] == f:
        return 0
    return -1


def augmented_graph(g: EmbeddedStGraph,
                    ord: BitonicOrdering) -> EmbeddedStGraph:
    """Materialize G plus the gap edges in the inherited embedding.

    Each gap edge is inserted into the successor rotation of its tail at
    the corner where its face touches the tail.  The result is validated
    by ``build_graph``, which checks st-planarity of the augmentation.
    """
    fi = compute_faces(g)
    inserts: dict[int, list[tuple[int, int]]] = {}
    for (x, y), f in zip(ord.augment_edges, gap_faces(g)):
        pos = corner_pos_at(fi, g, f, x)
        inserts.setdefault(x, []).append((pos, y))
    rows = succ(g)
    for x, ins in inserts.items():
        for pos, y in sorted(ins, reverse=True):
            rows[x].insert(pos, y)
    return build_graph(g.n, g.s, g.t, rows)


def generate_random_st_graph(cfg: GeneratorConfig) -> EmbeddedStGraph:
    """Reference for ``stlayout.generate.generate_random_st_graph``: the
    growth loop as first written, with one list per face, one tuple per
    edge in ``edge_set`` and closures for each mutation."""
    rng = random.Random(cfg.seed)
    s, t = 0, 1

    tail = [s]
    head = [t]
    # clockwise out-edge rotations as singly linked lists: first[u] is the
    # first edge id of u, nxt[e] the edge after e (-1 ends the list), so
    # inserting after a known edge is O(1) even at the high-degree source
    first = [0, -1]
    nxt = [-1]
    edge_set = {(s, t)}
    # face record: [source, left corner edge, right corner edge, sink];
    # faces[0] is the outer face (wrap-around corner of s)
    faces: list[list[int]] = [[s, 0, 0, t]]

    def new_edge(u, v):
        e = len(tail)
        tail.append(u)
        head.append(v)
        nxt.append(-1)
        edge_set.add((u, v))
        return e

    def insert_after(el, e):
        nxt[e] = nxt[el]
        nxt[el] = e

    def split_face(f, mid_edge):
        """Replace face f by its two halves on either side of mid_edge."""
        u, el, er, z = faces[f]
        if f == 0:
            faces[0] = [u, mid_edge, er, z]
            faces.append([u, el, mid_edge, z])
        else:
            faces[f] = [u, el, mid_edge, z]
            faces.append([u, mid_edge, er, z])

    n = 2
    while n < cfg.n_target:
        roll = rng.random()
        if roll < P_VERTEX:
            f = rng.randrange(len(faces))
            u, el, er, z = faces[f]
            w = n
            n += 1
            e1 = new_edge(u, w)
            e2 = new_edge(w, z)
            insert_after(el, e1)
            first.append(e2)
            split_face(f, e1)
        elif roll < P_VERTEX + P_CHORD:
            # a few tries to find a face whose source->sink chord is absent
            for _ in range(8):
                f = rng.randrange(len(faces))
                u, el, er, z = faces[f]
                if (u, z) not in edge_set:
                    e = new_edge(u, z)
                    insert_after(el, e)
                    split_face(f, e)
                    break
        else:
            e = rng.randrange(len(tail))
            v = head[e]
            w = n
            n += 1
            head[e] = w
            edge_set.discard((tail[e], v))
            edge_set.add((tail[e], w))
            e2 = new_edge(w, v)
            first.append(e2)

    rows = []
    for e in first:
        row = []
        while e >= 0:
            row.append(head[e])
            e = nxt[e]
        rows.append(row)
    return build_graph(n, s, t, rows)


def add_random_chords(g: EmbeddedStGraph, count: int,
                      seed: int) -> EmbeddedStGraph:
    """Reference for ``stlayout.generate.add_random_chords``: the same RNG
    stream and output, recomputing the faces, the corner positions and a
    DFS per candidate target from a graph rebuilt after every chord."""
    rng = random.Random(seed)
    for _ in range(count):
        fi = compute_faces(g)
        inner = inner_faces(fi)
        if not inner:
            break
        placed = False
        for _attempt in range(8):
            f = rng.choice(inner)
            on_face = sorted({g.tail[d >> 1] for d in fi.faces[f]}
                             | {g.head[d >> 1] for d in fi.faces[f]})
            rng.shuffle(on_face)
            for x in on_face:
                pos = corner_pos_at(fi, g, f, x)
                if pos < 0:
                    continue  # x is the sink of f: no corner to leave from
                targets = [y for y in on_face
                           if y != x and not has_edge(g, x, y)
                           and not reachable(g, y, x)]
                if not targets:
                    continue
                y = rng.choice(targets)
                rows = succ(g)
                rows[x].insert(pos, y)
                g = build_graph(g.n, g.s, g.t, rows)
                placed = True
                break
            if placed:
                break
    return g


def is_bitonic(seq) -> bool:
    """True iff ``seq`` strictly rises to its first maximum and never
    rises after it: no step that does not rise is followed by one that
    does.  For pairwise distinct elements, a strict rise and then a strict
    fall.
    """
    seq = list(seq)
    top = seq.index(max(seq)) if seq else 0
    return (all(a < b for a, b in zip(seq[:top], seq[1:top + 1]))
            and all(a >= b for a, b in zip(seq[top:], seq[top + 1:])))


def exists_bitonic_bruteforce(g: EmbeddedStGraph, max_n: int = 10) -> bool:
    """Enumerate all topological orderings; True iff one is bitonic.

    Guarded against factorial blowup.
    """
    if g.n > max_n:
        raise TooLarge(f"{g.n} vertices exceeds the oracle bound {max_n}")
    n = g.n
    rows = succ(g)
    in_deg = [0] * n
    for v in g.head:
        in_deg[v] += 1
    pi = [0] * n

    def rec(rank: int) -> bool:
        if rank > n:
            return all(is_bitonic([pi[v] for v in rows[u]])
                       for u in range(n))
        for u in range(n):
            if in_deg[u] == 0 and pi[u] == 0:
                pi[u] = rank
                for v in rows[u]:
                    in_deg[v] -= 1
                if rec(rank + 1):
                    return True
                for v in rows[u]:
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
    for k in range(budget + 1):
        for subset in itertools.combinations(range(g.m), k):
            h = apply_splits(g, SplitPlan(apex=tuple([0] * g.n),
                                          split_edges=subset))
            if isinstance(find_bitonic_ordering(h), BitonicOrdering):
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


def drawn_rotation_matches(g: EmbeddedStGraph, d) -> bool:
    """Whether ``d`` draws every row of ``g`` clockwise: on the subdivided
    graph, each bend a vertex of its edge, ``orientation(p_u, p_head(e),
    p_head(e + 1)) < 0`` for every two consecutive out-edges ``e`` and
    ``e + 1`` of a vertex ``u``.  For rising pieces, clockwise is left to
    right."""
    first = [path[1] for path in d.edge_paths]  # a bend, or the head
    coords = d.coords
    return all(orientation(coords[u], first[e], first[e + 1]) < 0
               for e, u in enumerate(g.tail[:-1]) if u == g.tail[e + 1])


def listed_face_chains(g: EmbeddedStGraph, d):
    """``(c, source, left, right)`` per inner face of ``g`` drawn as ``d``,
    with each bend ``k`` a vertex ``g.n + k`` of its edge: the face's
    source corner, between out-edges ``c`` and ``c + 1``, its source's
    point and the points its two chains enter, from the source's
    successors up to the sink.

    The subdivided graph is rebuilt by ``build_graph``, so its in-edge
    ends come from its own sweep, and ``graph._face_chains`` lists the
    chains, ended at the sink by the in-edge test.
    """
    n = g.n
    rows = [list(g.head[a:b]) for a, b in zip(g.out_start, g.out_start[1:])]
    for v, (e, _) in enumerate(d.bend_points, n):
        u = g.tail[e]
        rows[u][e - g.out_start[u]] = v
        rows.append([g.head[e]])
    h = build_graph(len(rows), g.s, g.t, rows)
    points = [*d.coords, *d.bends]
    at_head = [points[v] for v in h.head]
    for c, left, right in _face_chains(h):
        yield (c, points[h.tail[c]], [at_head[e] for e in left],
               [at_head[e] for e in right])


def faces_ordered_by_chains(g: EmbeddedStGraph, d) -> bool:
    """Reference for ``validate._misordered_face`` on ``g`` drawn as ``d``,
    for drawings with distinct points and rising pieces: the chains of
    ``listed_face_chains`` merged by y with the same orientation tests,
    indexing each list front to back.  True when every face passes.
    """
    for _, (ax, ay), left, right in listed_face_chains(g, d):
        bx, by = ax, ay
        i = j = 0
        lx, ly = left[0]
        rx, ry = right[0]
        while True:
            if ly < ry:
                if (rx - bx) * (ly - by) <= (ry - by) * (lx - bx):
                    return False
                ax, ay = lx, ly
                i += 1
                lx, ly = left[i]
            elif ry < ly:
                if (lx - ax) * (ry - ay) >= (ly - ay) * (rx - ax):
                    return False
                bx, by = rx, ry
                j += 1
                rx, ry = right[j]
            elif lx < rx:
                ax, ay, bx, by = lx, ly, rx, ry
                i += 1
                j += 1
                lx, ly = left[i]
                rx, ry = right[j]
            elif lx == rx:  # the sink
                break
            else:
                return False
    return True


def drawing_of(g, coords, bend_points=()) -> GridDrawing:
    """The drawing of ``g``'s edges (``g`` a graph or a drawing) with
    vertex ``v`` at ``coords[v]`` and, for each ``(e, p)`` of
    ``bend_points`` in increasing ``e``, one bend of edge ``e`` at ``p``:
    the node table of those points, the bends after the vertices."""
    points = [*coords, *(p for _, p in bend_points)]
    return GridDrawing(x=tuple(x for x, _ in points),
                       y=tuple(y for _, y in points), tail=g.tail,
                       head=g.head, bent=tuple(e for e, _ in bend_points))


def first_conflict(g: EmbeddedStGraph):
    """The first descent followed by a rise in any row, as a witness, or
    None when every row is bitonic."""
    for u in range(g.n):
        e0, e1 = g.out_start[u], g.out_start[u + 1]
        first_desc = 0
        for e in range(e0, e1 - 1):
            if g.corner_dir[e] > 0 and first_desc:
                return RejectionWitness(u=u, i=first_desc, j=e - e0 + 1)
            if g.corner_dir[e] < 0 and not first_desc:
                first_desc = e - e0 + 1
    return None


def first_descent_gap_edges(g: EmbeddedStGraph) -> tuple:
    """The gap edges of a graph whose rows are all bitonic, in edge id
    order: each zero corner points right before its row's first descent
    and left after it."""
    aug = []
    for u in range(g.n):
        seen_desc = False
        for e in range(g.out_start[u], g.out_start[u + 1] - 1):
            seen_desc = seen_desc or g.corner_dir[e] < 0
            if g.corner_dir[e] == 0:
                a, b = g.head[e], g.head[e + 1]
                aug.append((b, a) if seen_desc else (a, b))
    return tuple(aug)


def counter_split_plan(g: EmbeddedStGraph) -> SplitPlan:
    """Per row, the apex at the first minimum of a counter that falls on
    each rise and rises on each descent, and the edges whose paths run
    away from it."""
    cd = g.corner_dir
    apex = [0] * g.n
    split = []
    for u in range(g.n):
        e0, e1 = g.out_start[u], g.out_start[u + 1]
        if e0 == e1:
            continue
        counts = list(itertools.accumulate(-cd[e] for e in range(e0, e1 - 1)))
        top = e0
        if counts and min(counts) < 0:
            top = e0 + counts.index(min(counts)) + 1
        apex[u] = top - e0 + 1
        split += [e for e in range(e0, top) if cd[e] < 0]
        split += [e for e in range(top + 1, e1) if cd[e - 1] > 0]
    return SplitPlan(apex=tuple(apex), split_edges=split)
