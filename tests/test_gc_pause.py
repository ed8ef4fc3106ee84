"""The cyclic garbage collector is paused inside the bulk entry points.

The pause is safe because the pipeline makes no reference cycles:
refcounting alone frees everything a call drops.
"""

from __future__ import annotations

import gc

import pytest

from stlayout import (GeneratorConfig, NotAcyclic, build_graph,
                      check_bounds, check_upward_planar, draw_polyline,
                      drawing_from_text, drawing_to_text,
                      generate_random_st_graph, graph_from_json,
                      graph_from_text, graph_to_json, graph_to_text)
from stlayout.generate import add_random_chords
from conftest import fan
from oracles import drawing_of, succ

CYCLIC = (4, 0, 3, [[1], [2, 3], [1], []])


def entry_calls(g):
    """One call of each paused entry point on ``g``, as thunks."""
    d = draw_polyline(g)
    text, jtext = graph_to_text(g), graph_to_json(g)
    dtext = drawing_to_text(g, d)
    rows = succ(g)  # outside the thunks: allocating them may collect
    return [lambda: generate_random_st_graph(GeneratorConfig(n_target=g.n,
                                                             seed=1)),
            lambda: add_random_chords(g, g.n, 1),
            lambda: build_graph(g.n, g.s, g.t, rows),
            lambda: graph_from_text(text),
            lambda: graph_from_json(jtext),
            lambda: draw_polyline(g),
            lambda: drawing_from_text(dtext, g),
            lambda: check_upward_planar(g, d)]


@pytest.fixture
def collector_on():
    """The collector on for the test, then as the test run had it."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_caller_state_restored(collector_on, f1, enabled):
    if not enabled:
        gc.disable()
    for call in entry_calls(f1):
        call()
        assert gc.isenabled() is enabled
    with pytest.raises(NotAcyclic):
        build_graph(*CYCLIC)
    assert gc.isenabled() is enabled
    with pytest.raises(NotAcyclic):
        graph_from_text("4 0 3\n0: 1\n1: 2 3\n2: 1\n")
    assert gc.isenabled() is enabled


def test_paused_calls_run_no_collection(collector_on):
    g = fan(2000)
    calls = entry_calls(g)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        for call in calls:
            gc.collect()
            starts.clear()
            result = call()
            assert starts == [], call
            del result
    finally:
        gc.callbacks.remove(count)


@pytest.fixture
def collector_off():
    """The collector off for the test, then as the test run had it."""
    was = gc.isenabled()
    gc.disable()
    yield
    (gc.enable if was else gc.disable)()


def swapped(g, d):
    """``d`` with two vertices' x coordinates swapped and their edges moved
    along: every piece still rises, and the face check stops at a face
    that fails."""
    coords = list(d.coords)
    u, v = g.n // 4, g.n // 2
    (xu, yu), (xv, yv) = coords[u], coords[v]
    coords[u], coords[v] = (xv, yu), (xu, yv)
    return drawing_of(d, coords, d.bend_points)


def test_pipeline_leaves_no_cycles(collector_off):
    # with the collector off from the start, no collection inside or
    # after a call can free a cycle before the counts that follow it
    gc.collect()
    chorded = add_random_chords(generate_random_st_graph(
        GeneratorConfig(n_target=2000, seed=1)), 2000, 2)
    assert gc.collect() == 0  # generation and enrichment made none
    texts = [graph_to_text(chorded), graph_to_text(fan(2000))]
    gc.collect()
    for text in texts:
        g = graph_from_text(text)
        d = draw_polyline(g)
        assert g.n >= 2000 and d.splits  # the split and fold ran too
        d2 = drawing_from_text(drawing_to_text(g, d), g)
        report = check_upward_planar(g, d2)
        assert report.ok and check_bounds(d2, g.n, "polyline")
        crossed = check_upward_planar(g, swapped(g, d2))
        assert crossed.upward and not crossed.planar
        assert crossed.violations[0].startswith("face at vertex ")
        del g, d, d2, report, crossed
    assert not gc.isenabled()
    assert gc.collect() == 0
