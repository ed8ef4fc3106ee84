"""The face structure against independent references.

``build_graph`` derives the in-edge ends and the corner directions in
one sweep, and ``compute_faces`` derives the faces from the graph's
arrays on demand.  These tests compare both, on graphs and on split
graphs, with a dart-by-dart face trace (``oracles``) and with networkx's
planar-embedding check, and check that no pipeline stage builds the
faces.
"""

from __future__ import annotations

import itertools
import random

import pytest

import stlayout.graph
from stlayout import (BitonicOrdering, GeneratorConfig, NotPlanarEmbedding,
                      StGraphError, apply_splits, build_graph, check_bounds,
                      check_upward_planar, compute_faces, draw_polyline,
                      draw_straightline, drawing_from_text, drawing_to_text,
                      find_bitonic_ordering, generate_random_st_graph,
                      graph_from_text, graph_to_text, minimum_split_plan,
                      transitive_split_plan)
from stlayout.generate import add_random_chords
from conftest import all_fixture_graphs, corpus, fan, zig
from oracles import (NotEmbedded, dart_trace_faces, face_index_fields,
                     in_order, pred_ltr, succ)


def random_dag(rng):
    """Random DAG on 3-6 vertices with relabelled vertices and shuffled
    successor lists; most but not all have one source and one sink."""
    n = rng.randint(3, 6)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4}
    if rng.random() < 0.8:
        for v in range(1, n):
            if not any(b == v for _, b in edges):
                edges.add((rng.randrange(v), v))
        for u in range(n - 1):
            if not any(a == u for a, _ in edges):
                edges.add((u, rng.randrange(u + 1, n)))
    label = list(range(n))
    rng.shuffle(label)
    succ = [[] for _ in range(n)]
    for u, v in sorted(edges):
        succ[label[u]].append(label[v])
    for row in succ:
        rng.shuffle(row)
    return n, label[0], label[n - 1], succ


def embeddable(n, s, t, succ):
    """Some choice of in-edge orders makes a planar st-graph embedding."""
    in_deg = [0] * n
    for row in succ:
        for v in row:
            in_deg[v] += 1
    if any((in_deg[v] == 0) != (v == s) or (not succ[v]) != (v == t)
           for v in range(n)):
        return False
    into = [[] for _ in range(n)]
    for e, v in enumerate([v for row in succ for v in row]):
        into[v].append(e)
    for in_ltr in itertools.product(*map(itertools.permutations, into)):
        try:
            dart_trace_faces(n, s, t, succ, in_ltr)
            return True
        except NotEmbedded:
            pass
    return False


def test_accept_iff_embeddable():
    rng = random.Random(7)
    accepted = not_contiguous = straight = 0
    for _ in range(1500):
        n, s, t, succ = random_dag(rng)
        try:
            g = build_graph(n, s, t, succ)
            assert_matches_dart_trace(g)
            got = True
        except NotPlanarEmbedding:
            got = False
            not_contiguous += 1
        except StGraphError:
            got = False
        assert got == embeddable(n, s, t, succ), (n, s, t, succ)
        accepted += got
        if got:  # every accepted embedding draws within its bounds
            d = draw_polyline(g)
            assert check_upward_planar(g, d).ok
            assert check_bounds(d, g.n, "polyline")
            ord = find_bitonic_ordering(g)
            if isinstance(ord, BitonicOrdering):
                d = draw_straightline(g, ord)
                assert check_upward_planar(g, d).ok
                assert check_bounds(d, g.n, "straightline")
                straight += 1
    assert 300 < accepted < 1200 and not_contiguous > 100
    assert 0 < straight < accepted


def face_graphs():
    graphs = list(all_fixture_graphs())
    sizes = (5, 10, 25, 50, 100)
    graphs += corpus(sizes=sizes, seeds=range(6))
    graphs += corpus(sizes=sizes, seeds=range(6), chords=False)
    graphs += [fan(k) for k in (4, 5, 50, 2000)]
    graphs += [zig(k) for k in (3, 5, 9, 101, 1001)]
    return graphs


def assert_matches_dart_trace(g):
    """``compute_faces(g)`` and ``g.corner_dir`` equal the dart trace of
    the rotation system of ``g``."""
    want = dart_trace_faces(g.n, g.s, g.t, succ(g), in_order(g))
    assert face_index_fields(g) == dict(want, faces=len(want["faces"]))
    assert compute_faces(g).faces == tuple(tuple(sorted(c))
                                           for c in want["faces"])


def test_face_index_matches_dart_trace():
    split = 0
    for g in face_graphs():
        assert_matches_dart_trace(g)
        for plan in (minimum_split_plan(g), transitive_split_plan(g)):
            if plan.split_edges:
                assert_matches_dart_trace(apply_splits(g, plan))
                split += 1
    assert split > 50


def test_pipeline_builds_no_face_index(monkeypatch):
    def no_faces(*args, **kwargs):
        raise AssertionError("a pipeline stage built the face index")

    monkeypatch.setattr(stlayout.graph, "FaceIndex", no_faces)
    chorded = corpus(sizes=(60,), seeds=(3,))[0]
    for text in (graph_to_text(fan(50)), graph_to_text(chorded)):
        g = graph_from_text(text)
        plan = minimum_split_plan(g)
        assert plan.split_edges
        transitive = transitive_split_plan(g)
        assert apply_splits(g, transitive).n == g.n + len(
            transitive.split_edges)
        find_bitonic_ordering(g)
        d = draw_polyline(g)
        d = drawing_from_text(drawing_to_text(g, d), g)
        assert check_upward_planar(g, d).ok
        assert check_bounds(d, g.n, "polyline")
    with pytest.raises(AssertionError, match="built the face index"):
        compute_faces(g)


def check_with_networkx(g):
    """The full rotation of ``g`` is a planar embedding with m - n + 2
    faces, as many as ``compute_faces`` has."""
    nx = pytest.importorskip("networkx")
    rotation = {v: row + pred[::-1]
                for v, (row, pred) in enumerate(zip(succ(g), pred_ltr(g)))}
    emb = nx.PlanarEmbedding()
    emb.set_data(rotation)
    emb.check_structure()
    seen = set()
    faces = sum(1 for u, v in emb.edges() if (u, v) not in seen
                and emb.traverse_face(u, v, mark_half_edges=seen))
    assert faces == g.m - g.n + 2 == len(compute_faces(g).faces)


def swapped(g, rng):
    """The successor lists of ``g`` with 1-3 random pairs swapped."""
    rows = succ(g)
    wide = [u for u in range(g.n) if len(rows[u]) > 1]
    for _ in range(rng.randint(1, 3)):
        row = rows[rng.choice(wide)]
        i, j = rng.sample(range(len(row)), 2)
        row[i], row[j] = row[j], row[i]
    return rows


def test_rotation_system_is_planar_per_networkx():
    pytest.importorskip("networkx")
    rng = random.Random(3)
    graphs = corpus(sizes=(6, 12, 25, 50, 100, 200), seeds=range(4))
    big = generate_random_st_graph(GeneratorConfig(n_target=1000, seed=2))
    graphs.append(add_random_chords(big, 40, 3))
    rejected = 0
    for g in graphs:
        check_with_networkx(g)
        if g.n > 200:
            continue
        for _ in range(10):
            try:
                h = build_graph(g.n, g.s, g.t, swapped(g, rng))
            except StGraphError:
                rejected += 1
                continue
            check_with_networkx(h)
    assert rejected > 0
