"""The benchmark's graph families, each built from a seed and a size.

A workload makes a batch of graphs and serialises them to graph text, the
form a user hands to ``stlayout draw``.  The program under test only ever
sees that text; the seed stays on the benchmark's side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from stlayout import (EmbeddedStGraph, GeneratorConfig, build_graph,
                      generate_random_st_graph)
from stlayout.generate import add_random_chords

SMALL_CHORDED_GRAPHS = 40


def fan(k: int) -> EmbeddedStGraph:
    """Chain of k-3 forbidden configurations needing exactly k-3 splits.

    Vertices: s=0, a=1, middles 2..k-2, t=k-1.  Every middle m has
    S(m) = [a, next middle, t], so each consecutive middle pair forces one
    split no matter which apex is chosen.
    """
    if k < 4:
        raise ValueError("fan needs k >= 4")
    t = k - 1
    mids = list(range(2, k - 1))
    succ = [[] for _ in range(k)]
    succ[0] = [1, mids[0], t]
    succ[1] = [t]
    for j, m in enumerate(mids):
        nxt = [mids[j + 1]] if j + 1 < len(mids) else []
        succ[m] = [1] + nxt + [t]
    return build_graph(k, 0, t, succ)


def seed_bulk(seed: int, n: int) -> list[EmbeddedStGraph]:
    return [generate_random_st_graph(GeneratorConfig(n_target=n, seed=seed))]


def fan_split(seed: int, k: int) -> list[EmbeddedStGraph]:
    del seed  # the fan family has one member per size
    return [fan(k)]


def small_chorded(seed: int, n: int) -> list[EmbeddedStGraph]:
    graphs = []
    for i in range(SMALL_CHORDED_GRAPHS):
        gseed = seed * SMALL_CHORDED_GRAPHS + i
        g = generate_random_st_graph(GeneratorConfig(n_target=n, seed=gseed))
        graphs.append(add_random_chords(g, n, gseed + 1))
    return graphs


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], list[EmbeddedStGraph]]
    size: int              # n (or k for the fan) of the measured batch
    exact_splits: Callable[[int], int] | None = None  # required split count


WORKLOADS = {w.name: w for w in (
    Workload("seed-bulk", seed_bulk, 40_000),
    Workload("fan-split", fan_split, 20_000, exact_splits=lambda k: k - 3),
    Workload("small-chorded", small_chorded, 100),
)}
