"""Seeded random generation of embedded planar st-graphs.

Growth starts from the single edge (s, t) and applies three mutations that
each provably preserve the planar st-graph invariants:

  * vertex insertion: a new vertex inside a face, wired from the face's
    source to the new vertex and on to the face's sink,
  * chord insertion: the edge face-source -> face-sink where it is absent,
  * edge split: replace an edge by a length-2 path through a new vertex.

Each mutation costs O(1), so generation is linear in the target size.
Every face runs from ``s`` to ``t``, since both halves of a split face
keep its source and sink, so a face is kept as its left corner edge at
``s``, in one flat column, and one flag tells whether the only chord,
``(s, t)``, is absent.  The growth state is freed before ``build_graph``
runs on the successor rows, so the two never take memory at once.  The
stream is Python's Mersenne Twister, fully determined by the seed: one
``random()`` per step, then ``randrange`` over the faces (up to 8 times
for a chord) or the edges.
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
        n = self.n_target
        # a bool is an int, but never >= 2
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"n_target must be an int >= 2, got {n!r}")


@_gc_paused
def generate_random_st_graph(cfg: GeneratorConfig) -> EmbeddedStGraph:
    return build_graph(*_grow(cfg))


def _grow(cfg: GeneratorConfig) -> tuple[int, int, int, list[list[int]]]:
    """Apply the mutations until ``cfg.n_target`` vertices exist and return
    ``(n, s, t, rows)`` for ``build_graph``.  Everything else the growth
    kept is freed on return, before ``build_graph`` allocates."""
    rng = random.Random(cfg.seed)
    random_, randrange = rng.random, rng.randrange
    big_n = cfg.n_target
    s, t = 0, 1

    tail, head = [s], [t]
    # clockwise out-edge rotations as singly linked lists: first[u] is the
    # first edge id of u, nxt[e] the edge after e (-1 ends the list), so
    # inserting after a known edge is O(1) even at the high-degree source
    first, nxt = [0, -1], [-1]
    st = True  # whether the edge (s, t) exists
    # left[f] is face f's left corner edge at s, after which insertions go;
    # face 0 is the outer face, whose corner at s wraps around
    left = [0]

    n = 2
    while n < big_n:
        roll = random_()
        if roll < P_VERTEX + P_CHORD:
            if roll < P_VERTEX:
                # vertex insertion: the path s -> w -> t through new w
                f = randrange(len(left))
                w, n = n, n + 1
            else:
                # chord s -> t: 8 face draws, or 1 where the edge is absent
                for _ in range(8):
                    f = randrange(len(left))
                    if not st:
                        break
                else:
                    continue
                w = t  # the new edge is the chord itself
                st = True
            # the edge s -> w goes after the face's left corner edge at s
            # and splits the face in two
            e = len(tail)
            tail.append(s)
            head.append(w)
            el = left[f]
            nxt.append(nxt[el])
            nxt[el] = e
            if w != t:  # and w -> t, the first out-edge of w
                tail.append(w)
                head.append(t)
                nxt.append(-1)
                first.append(e + 1)
            if f:  # the half right of e is the new face
                left.append(e)
            else:  # face 0 keeps the half that stays outer
                left.append(el)
                left[0] = e
        else:
            # edge split: u -> v becomes u -> w -> v through new w
            e = randrange(len(tail))
            v = head[e]
            head[e] = n
            st = st and not (tail[e] == s and v == t)
            first.append(len(tail))
            tail.append(n)
            head.append(v)
            nxt.append(-1)
            n += 1

    rows = []
    for e in first:
        row = []
        while e >= 0:
            row.append(head[e])
            e = nxt[e]
        rows.append(row)
    return n, s, t, rows


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
