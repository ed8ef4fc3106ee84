"""Random generation: determinism, validity, enrichment."""

from __future__ import annotations

import tracemalloc

import pytest

import oracles
import stlayout.generate
from stlayout import (GeneratorConfig, RejectionWitness, compute_faces,
                      find_bitonic_ordering, generate_random_st_graph,
                      graph_to_text)
from stlayout.generate import RNG_ALGORITHM, add_random_chords
from conftest import corpus
from oracles import edges, inner_faces, reachable


def test_rng_identifier():
    assert RNG_ALGORITHM == "mt19937"


def test_n2_is_single_edge():
    g = generate_random_st_graph(GeneratorConfig(n_target=2, seed=0))
    assert g.n == 2 and edges(g) == [(0, 1)]


def test_determinism():
    a = generate_random_st_graph(GeneratorConfig(n_target=60, seed=9))
    b = generate_random_st_graph(GeneratorConfig(n_target=60, seed=9))
    assert graph_to_text(a) == graph_to_text(b)


def test_different_seeds_differ():
    a = generate_random_st_graph(GeneratorConfig(n_target=60, seed=1))
    b = generate_random_st_graph(GeneratorConfig(n_target=60, seed=2))
    assert graph_to_text(a) != graph_to_text(b)


def test_target_size_reached():
    for n in (2, 3, 17, 120):
        g = generate_random_st_graph(GeneratorConfig(n_target=n, seed=5))
        assert g.n == n


def test_config_validation():
    # only an int of at least 2: a float or a str would not end in the
    # requested n
    for n_target in (1, 0, -3, 2.5, 2.0, "5", None, True, False):
        with pytest.raises(ValueError):
            GeneratorConfig(n_target=n_target, seed=0)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 8, 13, 30, 100, 1000))
def test_generator_matches_the_reference(n):
    for seed in range(20):
        cfg = GeneratorConfig(n_target=n, seed=seed)
        assert (graph_to_text(generate_random_st_graph(cfg))
                == graph_to_text(oracles.generate_random_st_graph(cfg))), seed


@pytest.mark.parametrize("seed", (1, 2))
def test_generator_matches_the_reference_at_40k(seed):
    # seed 1 is the benchmark's seed-bulk input
    cfg = GeneratorConfig(n_target=40_000, seed=seed)
    assert (graph_to_text(generate_random_st_graph(cfg))
            == graph_to_text(oracles.generate_random_st_graph(cfg)))


def test_growth_state_is_freed_before_build_graph():
    # build_graph's arrays take about the size of the graph it returns;
    # growth state still alive beside them takes the peak past 4x that
    cfg = GeneratorConfig(n_target=20_000, seed=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = generate_random_st_graph(cfg)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 20_000
    assert peak - base <= 3.0 * (size - base), (peak - base) / (size - base)


def test_pure_mutations_never_need_splits():
    # the three growth mutations keep every inner face spanned s -> t,
    # so recognition always accepts without enrichment
    for seed in range(20):
        g = generate_random_st_graph(GeneratorConfig(n_target=30, seed=seed))
        assert not isinstance(find_bitonic_ordering(g), RejectionWitness)


def test_chord_enrichment_creates_rejections():
    rejected = 0
    for seed in range(20):
        g = generate_random_st_graph(GeneratorConfig(n_target=20, seed=seed))
        g = add_random_chords(g, 20, seed + 1)
        assert g.n == 20  # chords add no vertices
        if isinstance(find_bitonic_ordering(g), RejectionWitness):
            rejected += 1
    assert rejected >= 10


def test_chord_enrichment_deterministic():
    g = generate_random_st_graph(GeneratorConfig(n_target=25, seed=3))
    a = add_random_chords(g, 10, 4)
    b = add_random_chords(g, 10, 4)
    assert graph_to_text(a) == graph_to_text(b)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 8, 13, 30, 100))
def test_chords_match_the_rebuilding_reference(n):
    # count 5n saturates the faces, so whole rounds of 8 attempts place
    # nothing; n = 2 has no inner face at all
    unplaced = 0
    for seed in range(20):
        g = generate_random_st_graph(GeneratorConfig(n_target=n, seed=seed))
        for count in (0, 1, n, 5 * n):
            got = add_random_chords(g, count, seed + 1)
            want = oracles.add_random_chords(g, count, seed + 1)
            assert graph_to_text(got) == graph_to_text(want), (seed, count)
            unplaced += got.m - g.m < count
    assert unplaced >= 20


def test_chords_match_the_reference_on_the_small_chorded_batch():
    # the benchmark's small-chorded batch at seed 1: graph seeds 40-79
    for gseed in range(40, 80):
        g = generate_random_st_graph(GeneratorConfig(n_target=100,
                                                     seed=gseed))
        assert (graph_to_text(add_random_chords(g, 100, gseed + 1))
                == graph_to_text(oracles.add_random_chords(g, 100,
                                                           gseed + 1)))


def face_chains(g, fi, f):
    """The left and right boundary chains of inner face ``f``, each from
    its source to its sink, read off the face's darts: the face lies
    right of its left chain's edges (odd darts), left of its right
    chain's."""
    chains = []
    for side in (1, 0):
        step = {g.tail[d >> 1]: g.head[d >> 1]
                for d in fi.faces[f] if d & 1 == side}
        chain = [fi.face_source[f]]
        while chain[-1] != fi.face_sink[f]:
            chain.append(step[chain[-1]])
        chains.append(chain)
    return chains


def test_face_vertices_reached_only_along_their_own_chain():
    # the fact add_random_chords draws its targets from: the vertices of
    # a face that reach x are exactly those before x on x's chain
    for g in corpus(sizes=(6, 12, 25, 50), seeds=range(8)):
        fi = compute_faces(g)
        for f in inner_faces(fi):
            left, right = face_chains(g, fi, f)
            on_face = set(left) | set(right)
            for chain in (left, right):
                for i, x in enumerate(chain[:-1]):
                    reach = {y for y in on_face - {x} if reachable(g, y, x)}
                    assert reach == set(chain[:i]), (f, x)


def test_enrichment_builds_the_graph_once(monkeypatch):
    cases = [(generate_random_st_graph(GeneratorConfig(n_target=n,
                                                       seed=7)), count)
             for n, count in ((2, 5), (30, 0), (30, 1), (30, 30),
                              (30, 150), (100, 100))]
    calls = []
    build = stlayout.generate.build_graph

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(stlayout.generate, "build_graph", counted)
    for g, count in cases:
        calls.clear()
        add_random_chords(g, count, 8)
        assert len(calls) == 1, count
