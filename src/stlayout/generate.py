"""Seeded random generation of embedded planar st-graphs.

Growth starts from the single edge (s, t) and applies three mutations that
each provably preserve the planar st-graph invariants:

  * vertex insertion: a new vertex inside a face, wired from the face's
    source to the new vertex and on to the face's sink,
  * chord insertion: the edge face-source -> face-sink where it is absent,
  * edge split: replace an edge by a length-2 path through a new vertex.

Faces are tracked incrementally as (source, corner edges, sink) records,
so generation is linear-ish in the target size.  The stream is Python's
Mersenne Twister, fully determined by the seed.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass

from .graph import EmbeddedStGraph, _face_chains, _gc_paused, build_graph

RNG_ALGORITHM = "mt19937"
# probabilities of vertex insertion and chord insertion; the rest splits
P_VERTEX, P_CHORD = 0.5, 0.3


@dataclass(frozen=True)
class GeneratorConfig:
    n_target: int
    seed: int

    def __post_init__(self):
        if self.n_target < 2:
            raise ValueError("n_target must be >= 2")


@_gc_paused
def generate_random_st_graph(cfg: GeneratorConfig) -> EmbeddedStGraph:
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


@_gc_paused
def add_random_chords(g: EmbeddedStGraph, count: int,
                      seed: int) -> EmbeddedStGraph:
    """Insert up to ``count`` chords between boundary vertices of faces.

    The three growth mutations keep every inner face spanned between ``s``
    and ``t``, so their output alone never contains a transitive edge or a
    forbidden configuration.  A chord (x, y) between two boundary vertices
    of a face is always safe when no path y ~> x exists: it cannot create
    a cycle, and drawn inside the face it keeps the embedding planar.
    Such chords do produce transitive edges and forbidden configurations.

    Each chord edits the successor rows in place and splits its face's
    record in two; ``build_graph`` runs once, at the end.  A face is
    recorded by its left and right boundary chains, each a path from its
    source to its sink.  Two vertices of a planar st-graph are either
    joined by a path or one lies left of the other, never both (Tamassia
    and Preparata, Algorithmica 5, 1990), so the face vertices that reach
    ``x`` are exactly those before it on its own chain.
    """
    rng = random.Random(seed)
    tail, head, starts = g.tail, g.head, g.out_start
    rows = [list(head[a:b]) for a, b in zip(starts, starts[1:])]

    def first_dart(face):
        # the dart order of build_graph: edge ids run by tail, then row
        # position, and the dart right of an edge follows the one left of it
        u, v, right_of = face[0]
        return u, rows[u].index(v), right_of

    # the inner faces in face-id order, which is the order of first darts
    inner = sorted((_face([tail[c], *map(head.__getitem__, left)],
                          [tail[c], *map(head.__getitem__, right)])
                    for c, left, right in _face_chains(g)), key=first_dart)

    for _ in range(count if inner else 0):
        for _attempt in range(8):
            # draws from the RNG exactly as rng.choice(inner) would
            k = rng.choice(range(len(inner)))
            _, left, right = inner[k]
            z = left[-1]
            where = {v: (left, i) for i, v in enumerate(left)}
            where.update((v, (right, i))
                         for i, v in enumerate(right[1:-1], 1))
            on_face = sorted(where)
            rng.shuffle(on_face)
            for x in on_face:
                if x == z:
                    continue  # no corner of the face to leave from
                chain, i = where[x]
                before, row = chain[:i + 1], rows[x]
                targets = [y for y in on_face
                           if y not in before and y not in row]
                if targets:
                    break
            else:
                continue
            y = rng.choice(targets)
            other, j = where[y]
            if i == 0:  # x is the source: the chord runs between its chains
                row.insert(row.index(left[1]) + 1, y)
                chain = other
            else:
                row.insert(len(row) if chain is left else 0, y)
            if y == z:
                other, j = chain, len(chain) - 1
            # each half as (x's side, the other side)
            if other is chain:
                halves = ((chain[i:j + 1], [x, y]),
                          (chain[:i + 1] + chain[j:],
                           right if chain is left else left))
            else:
                halves = ((chain[i:], [x] + other[j:]),
                          (chain[:i + 1] + [y], other[:j + 1]))
            del inner[k]
            for a, b in halves:
                insort(inner, _face(*((a, b) if chain is left else (b, a))),
                       key=first_dart)
            break
    return build_graph(g.n, g.s, g.t, rows)


def _face(left, right) -> tuple:
    """``((u, v, right_of), left, right)``: the face between two chains,
    and the edge ``(u, v)`` that carries its first dart.  That is an edge
    out of the face's smallest vertex but its sink, the left one at the
    source, and ``right_of`` tells whether the face lies right of it."""
    v = min(left[:-1] + right[1:-1])
    chain = left if v in left else right
    return (v, chain[chain.index(v) + 1], chain is left), left, right
