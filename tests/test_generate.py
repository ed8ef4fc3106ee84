"""Random generation: determinism, validity, enrichment."""

from __future__ import annotations

import pytest

from stlayout import (GeneratorConfig, RejectionWitness,
                      find_bitonic_ordering, generate_random_st_graph,
                      graph_to_text)
from stlayout.generate import RNG_ALGORITHM, add_random_chords
from oracles import edges


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
    with pytest.raises(ValueError):
        GeneratorConfig(n_target=1, seed=0)


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
