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
from dataclasses import dataclass

from .graph import EmbeddedStGraph, build_graph, compute_faces

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


def add_random_chords(g: EmbeddedStGraph, count: int,
                      seed: int) -> EmbeddedStGraph:
    """Insert up to ``count`` chords between boundary vertices of faces.

    The three growth mutations keep every inner face spanned between ``s``
    and ``t``, so their output alone never contains a transitive edge or a
    forbidden configuration.  A chord (x, y) between two boundary vertices
    of a face is always safe when no path y ~> x exists: it cannot create
    a cycle, and drawn inside the face it keeps the embedding planar.
    Such chords do produce transitive edges and forbidden configurations.
    Rebuilds the graph once per chord; intended for test-corpus
    enrichment, not for bulk generation.
    """
    from .graph import reachable
    from .ordering import _corner_pos_at

    rng = random.Random(seed)
    for _ in range(count):
        fi = compute_faces(g)
        inner = fi.inner_faces()
        if not inner:
            break
        placed = False
        for _attempt in range(8):
            f = rng.choice(inner)
            on_face = sorted({g.tail[d >> 1] for d in fi.faces[f]}
                             | {g.head[d >> 1] for d in fi.faces[f]})
            rng.shuffle(on_face)
            for x in on_face:
                pos = _corner_pos_at(g, f, x)
                if pos < 0:
                    continue  # x is the sink of f: no corner to leave from
                targets = [y for y in on_face
                           if y != x and not g.has_edge(x, y)
                           and not reachable(g, y, x)]
                if not targets:
                    continue
                y = rng.choice(targets)
                rows = [list(r) for r in g.succ]
                rows[x].insert(pos, y)
                g = build_graph(g.n, g.s, g.t, rows)
                placed = True
                break
            if placed:
                break
    return g
