"""Minimum split plans, the transitive baseline, and split application."""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from stlayout import (BitonicOrdering, EdgeNotFound, apply_splits,
                      build_graph, compute_faces, find_bitonic_ordering,
                      minimum_split_plan, transitive_split_plan)
from stlayout.splitting import SplitPlan, plan_to_text
from conftest import all_fixture_graphs, corpus, fan, zig
from oracles import (edges, left_right_counts, minimum_splits_bruteforce,
                     reachable, split_dummies, succ)


def test_triangle_plan_empty(triangle):
    assert minimum_split_plan(triangle).split_edges == ()
    # the chord (s, t), edge 1, is transitive, so the baseline splits it
    assert transitive_split_plan(triangle).split_edges == (1,)


def test_f1_plan(f1):
    plan = minimum_split_plan(f1)
    assert plan.split_edges == (2,)  # the edge (0, 3)
    assert plan.apex[0] == 1


def test_f1_left_right_counts(f1):
    L, R = left_right_counts(f1, 0)
    assert L == [0, 1, 1]
    assert R == [0, 0, 1]


def test_apply_splits_f1(f1):
    h = apply_splits(f1, minimum_split_plan(f1))
    assert h.n == 6
    assert split_dummies(f1, h) == {5: (0, 3)}
    assert isinstance(find_bitonic_ordering(h), BitonicOrdering)


def test_a_plan_keeps_its_split_edges_as_a_tuple(f1):
    # a plan's ids may be given in a list; apply_splits concatenates
    # tuples, so the plan keeps them as one
    p = minimum_split_plan(f1)
    listed = SplitPlan(apex=p.apex, split_edges=[2])
    assert listed == p and listed.split_edges == (2,)
    assert apply_splits(f1, listed) == apply_splits(f1, p)


def test_apply_splits_missing_edge(triangle):
    # the triangle has edges 0..2: an id past the last one, a negative id,
    # a repeated id and a decreasing pair
    for ids in ((0, 3), (-1, 1), (1, 1), (2, 0)):
        plan = SplitPlan(apex=(0, 0, 0), split_edges=ids)
        with pytest.raises(EdgeNotFound):
            apply_splits(triangle, plan)


def test_split_graph_always_accepted():
    for g in corpus(sizes=(8, 15, 30), seeds=range(12)):
        h = apply_splits(g, minimum_split_plan(g))
        assert isinstance(find_bitonic_ordering(h), BitonicOrdering)


def test_split_count_bound():
    # at most |V| - 3 splits on every tested graph
    for g in corpus(sizes=(8, 15, 30, 60), seeds=range(12)):
        plan = minimum_split_plan(g)
        assert len(plan.split_edges) <= max(g.n - 3, 0)


def test_minimum_not_larger_than_transitive_baseline():
    for g in corpus(sizes=(8, 15, 30), seeds=range(12)):
        k_min = len(minimum_split_plan(g).split_edges)
        baseline = transitive_split_plan(g)
        assert k_min <= len(baseline.split_edges)
        h = apply_splits(g, baseline)
        assert isinstance(find_bitonic_ordering(h), BitonicOrdering)


def test_transitive_baseline_splits_only_transitive_edges():
    for g in corpus(sizes=(8, 15), seeds=range(8)):
        rows = succ(g)
        for e in transitive_split_plan(g).split_edges:
            u, v = g.tail[e], g.head[e]
            others = [w for w in rows[u] if w != v]
            assert any(reachable(g, w, v) for w in others)


def test_fan_family_tight():
    for k in range(4, 13):
        g = fan(k)
        assert len(minimum_split_plan(g).split_edges) == k - 3


def test_bruteforce_agreement_small(f1, triangle):
    assert minimum_splits_bruteforce(f1, 2) == 1
    assert minimum_splits_bruteforce(triangle, 1) == 0
    g = fan(6)
    assert minimum_splits_bruteforce(g, 3) == 3


def test_reachability_preserved_by_splits():
    for g in corpus(sizes=(7, 10), seeds=range(8)):
        h = apply_splits(g, minimum_split_plan(g))
        for u in range(g.n):
            for v in range(g.n):
                assert reachable(g, u, v) == reachable(h, u, v)


def test_plan_text(f1):
    assert plan_to_text(f1, minimum_split_plan(f1)) == "split 0 3\ntotal 1\n"


def rebuilt_split_graph(g, plan):
    """Reference: the split rows, validated and swept by ``build_graph``."""
    planned = set(plan.split_edges)
    rows = succ(g)
    dummy_of = {}
    for e, (u, v) in enumerate(edges(g)):
        if e in planned:
            d = g.n + len(dummy_of)
            rows[u][e - g.out_start[u]] = d
            dummy_of[d] = (u, v)
    rows += [[v] for _, v in dummy_of.values()]
    return build_graph(len(rows), g.s, g.t, rows), dummy_of


def test_apply_splits_matches_rebuilt_graph():
    graphs = all_fixture_graphs() + corpus(sizes=(8, 15, 30, 60),
                                           seeds=range(10))
    graphs += [fan(k) for k in (4, 5, 50, 2000)]
    graphs += [zig(k) for k in (3, 5, 9, 101, 1001)]
    rng = random.Random(7)
    compared = 0
    for g in graphs:
        plans = [minimum_split_plan(g), transitive_split_plan(g)]
        for _ in range(3):
            chosen = sorted(rng.sample(range(g.m), rng.randint(1, g.m)))
            plans.append(SplitPlan(apex=(0,) * g.n,
                                   split_edges=tuple(chosen)))
        for plan in plans:
            h = apply_splits(g, plan)
            if not plan.split_edges:
                assert h is g
                continue
            ref, dummy_of = rebuilt_split_graph(g, plan)
            assert split_dummies(g, h) == dummy_of
            for f in fields(ref):
                assert getattr(h, f.name) == getattr(ref, f.name), f.name
            got, want = compute_faces(h), compute_faces(ref)
            for f in fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
            compared += 1
    assert compared >= 300
