"""Shared fixtures: hand-built graphs, generated corpora and the
doubling-ratio timer behind the linear-time gates."""

from __future__ import annotations

import gc
import time

import pytest

from stlayout import (EmbeddedStGraph, GeneratorConfig, build_graph,
                      generate_random_st_graph)
from stlayout.generate import add_random_chords


@pytest.fixture
def triangle() -> EmbeddedStGraph:
    """s -> a -> t plus the chord s -> t; smallest graph with an inner face."""
    return build_graph(3, 0, 2, [[1, 2], [2], []])


@pytest.fixture
def single_edge() -> EmbeddedStGraph:
    return build_graph(2, 0, 1, [[1], []])


@pytest.fixture
def f1() -> EmbeddedStGraph:
    """Fan with chords v2->v1 and v2->v3: the canonical rejected graph.

    s=0, v1=1, v2=2, v3=3, t=4.  Paths v2 ~> v1 (backward) and v2 ~> v3
    (forward) among the successors of s form a forbidden configuration.
    """
    return build_graph(5, 0, 4, [[1, 2, 3], [4], [1, 3], [4], []])


@pytest.fixture
def split_f1() -> EmbeddedStGraph:
    """f1 with the edge (s, v3) split through the dummy vertex 5."""
    return build_graph(6, 0, 4, [[1, 2, 5], [4], [1, 3], [4], [], [3]])


def fan(k: int) -> EmbeddedStGraph:
    """Chain of k-3 forbidden configurations needing exactly k-3 splits.

    Vertices: s=0, a=1, middles 2..k-2, t=k-1.  Every middle m has
    S(m) = [a, next middle, t], so each consecutive middle pair forces one
    split no matter which apex is chosen.
    """
    assert k >= 4
    t = k - 1
    mids = list(range(2, k - 1))
    succ = [[] for _ in range(k)]
    succ[0] = [1, mids[0], t] if mids else [1, t]
    succ[1] = [t]
    for j, m in enumerate(mids):
        nxt = [mids[j + 1]] if j + 1 < len(mids) else []
        succ[m] = [1] + nxt + [t]
    return build_graph(k, 0, t, succ)


def zig(k: int) -> EmbeddedStGraph:
    """One vertex whose minimum plan splits (k-1)/2 of its out-edges.

    Vertices: s=0, successors 1..k of s (k odd), t=k+1.  Every even i has
    S(i) = [i-1, i+1] and every odd i has S(i) = [t], so the paths between
    the successors of s alternate right to left and left to right.
    """
    assert k >= 3 and k % 2 == 1
    t = k + 1
    succ = [[] for _ in range(k + 2)]
    succ[0] = list(range(1, k + 1))
    for i in range(1, k + 1):
        succ[i] = [i - 1, i + 1] if i % 2 == 0 else [t]
    return build_graph(k + 2, 0, t, succ)


@pytest.fixture
def seven() -> EmbeddedStGraph:
    """Frozen 7-vertex shape with chords; rejected with witness (s, 1, 3)."""
    return build_graph(7, 0, 1, [[2, 4, 5, 1], [], [1, 6], [6, 1],
                                 [2, 6, 3], [4, 3, 1], [1]])


@pytest.fixture
def sixteen() -> EmbeddedStGraph:
    """Frozen 16-vertex shape with chords; needs 4 splits."""
    return build_graph(16, 0, 1, [
        [2, 14, 4, 12, 10, 8, 3, 5, 15, 1, 13, 7, 11], [], [9, 14], [1],
        [1, 6, 12], [3, 15], [1, 12], [1], [1, 3], [1, 14], [12, 1, 8],
        [7, 1], [1], [1, 7], [1, 4], [3, 1]])


def corpus(sizes, seeds, chords=True):
    """Deterministic list of generated graphs, optionally chord-enriched."""
    out = []
    for n in sizes:
        for seed in seeds:
            g = generate_random_st_graph(GeneratorConfig(n_target=n,
                                                         seed=seed))
            if chords:
                g = add_random_chords(g, n, seed + 1)
            out.append(g)
    return out


def all_fixture_graphs():
    """Every hand-built fixture, for oracle sweeps."""
    graphs = [
        build_graph(3, 0, 2, [[1, 2], [2], []]),
        build_graph(2, 0, 1, [[1], []]),
        build_graph(5, 0, 4, [[1, 2, 3], [4], [1, 3], [4], []]),
        build_graph(6, 0, 4, [[1, 2, 5], [4], [1, 3], [4], [], [3]]),
        build_graph(7, 0, 1, [[2, 4, 5, 1], [], [1, 6], [6, 1],
                              [2, 6, 3], [4, 3, 1], [1]]),
        build_graph(16, 0, 1, [
            [2, 14, 4, 12, 10, 8, 3, 5, 15, 1, 13, 7, 11], [], [9, 14],
            [1], [1, 6, 12], [3, 15], [1, 12], [1], [1, 3], [1, 14],
            [12, 1, 8], [7, 1], [1], [1, 7], [1, 4], [3, 1]]),
    ]
    graphs += [fan(k) for k in range(4, 13)]
    return graphs


LINEAR_GATE = 2.5  # largest median doubling ratio accepted as linear


def doubling_ratios(run, inputs, rounds=15):
    """Per consecutive pair of ``inputs``, the time ratio in every round.

    ``inputs`` are ordered by size, each double the one before.  The noise
    that swamps a doubling ratio is host speed drift, not the algorithm:
    on a 2-vCPU host the same fixed piece of work takes anywhere from 16
    to 37 ms from one moment to the next, in wall and thread CPU time
    alike, so sizes timed seconds apart are not comparable.  Every input
    is therefore built before any timing, each round times all sizes back
    to back, and a ratio is only taken between two timings of the same
    round.  Rounds alternate ascending and descending order, so a drift
    within a round favours neither the smaller nor the larger size of a
    pair.  Callers gate the median ratio across rounds.
    """
    per_round = []
    for r in range(rounds):
        order = range(len(inputs))
        times = [0.0] * len(inputs)
        for i in (order if r % 2 == 0 else reversed(order)):
            times[i] = timed(run, inputs[i])
        per_round.append([b / a for a, b in zip(times, times[1:])])
    return [list(pair) for pair in zip(*per_round)]


def timed(run, arg):
    # the cyclic collector would bill one call for garbage of another;
    # keep it off while timing and collect between calls
    gc.disable()
    try:
        t0 = time.perf_counter()
        run(arg)
        return time.perf_counter() - t0
    finally:
        gc.enable()
        gc.collect()
