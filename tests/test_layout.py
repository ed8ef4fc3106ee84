"""Straight-line and poly-line drawings."""

from __future__ import annotations

import gc
import re
import tracemalloc
from statistics import median

import pytest

import stlayout
from stlayout import (BitonicOrdering, EmbeddedStGraph, GridDrawing,
                      OrderingInvalid, RejectionWitness, check_bounds,
                      check_upward_planar, draw_polyline, draw_straightline,
                      drawing_from_text, drawing_to_text, emit_svg,
                      find_bitonic_ordering, graph_from_json,
                      graph_from_text, graph_to_json, graph_to_text,
                      minimum_split_plan)
from conftest import LINEAR_GATE, corpus, doubling_ratios, fan, zig
from oracles import drawing_of


def test_triangle_coordinates(triangle):
    res = find_bitonic_ordering(triangle)
    d = draw_straightline(triangle, res)
    assert d.coords == ((3, 0), (0, 1), (1, 2))
    assert d.width == 3 and d.height == 2


def test_single_edge_drawing(single_edge):
    res = find_bitonic_ordering(single_edge)
    d = draw_straightline(single_edge, res)
    assert len(d.coords) == 2
    assert d.coords[0][1] < d.coords[1][1]
    assert check_bounds(d, 2, "straightline")


def test_straightline_needs_valid_ordering(triangle):
    bad = BitonicOrdering(order=[1, 0, 2], augment_edges=())
    with pytest.raises(OrderingInvalid):
        draw_straightline(triangle, bad)


def test_straightline_bounds_on_accepted_corpus():
    for g in corpus(sizes=(6, 12, 25, 50), seeds=range(8)):
        res = find_bitonic_ordering(g)
        if not isinstance(res, BitonicOrdering):
            continue
        d = draw_straightline(g, res)
        rep = check_upward_planar(g, d)
        assert rep.ok, rep.violations[:2]
        assert check_bounds(d, g.n, "straightline")


def test_polyline_f1(f1):
    d = draw_polyline(f1)
    assert d.splits == ((0, 3),)
    bends = d.bend_points
    assert len(bends) == 1
    e, _ = bends[0]
    assert (f1.tail[e], f1.head[e]) == (0, 3)
    assert check_upward_planar(f1, d).ok
    assert check_bounds(d, 5, "polyline")


def test_polyline_corpus_valid_and_bounded():
    for g in corpus(sizes=(6, 12, 25, 50), seeds=range(8)):
        d = draw_polyline(g)
        rep = check_upward_planar(g, d)
        assert rep.ok, rep.violations[:2]
        assert check_bounds(d, g.n, "polyline")
        assert len(d.bend_points) <= max(g.n - 3, 0)


def test_polyline_plans_no_splits_for_an_accepted_graph(monkeypatch):
    # an accepted graph's split plan is empty, so drawing it splits
    # nothing; its poly-line drawing is its straight-line drawing
    def no_split(g, plan):
        raise AssertionError("split edges of an accepted graph")

    monkeypatch.setattr("stlayout.layout.apply_splits", no_split)
    drawn = 0
    for g in corpus(sizes=(6, 12, 25, 50), seeds=range(8)):
        ord = find_bitonic_ordering(g)
        if not isinstance(ord, RejectionWitness):
            assert draw_polyline(g) == draw_straightline(g, ord)
            drawn += 1
    assert drawn > 0


def test_draw_polyline_scans_each_graph_once(monkeypatch):
    # one row scan plans the splits and orders the split graph, so drawing
    # neither recognizes a graph nor plans its splits by the public calls
    graphs = [fan(2000), zig(1001)] + corpus(sizes=(6, 12, 25, 50),
                                             seeds=range(8))
    expected = [len(minimum_split_plan(g).split_edges) for g in graphs]

    def rescanned(*args):
        raise AssertionError("draw_polyline scanned a graph again")

    for module in (stlayout, stlayout.layout, stlayout.ordering,
                   stlayout.splitting):
        for name in ("find_bitonic_ordering", "minimum_split_plan"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, rescanned)
    for g, k in zip(graphs, expected):
        d = draw_polyline(g)
        assert len(d.bent) == k
        assert check_upward_planar(g, d).ok
    assert expected[:2] == [1997, 500]


def test_fan_family_bends():
    for k in range(4, 13):
        g = fan(k)
        d = draw_polyline(g)
        assert sum(len(p) - 2 for p in d.edge_paths) == k - 3


def test_pipeline_caches_nothing_on_the_graph(f1):
    # a graph is its stored arrays alone: parsing, drawing, emitting text
    # and JSON and validating add no attribute to it
    graphs = [f1, fan(50), zig(101)] + corpus(sizes=(12, 40), seeds=range(3))
    for g in map(graph_from_text, map(graph_to_text, graphs)):
        d = draw_polyline(g)
        ord = find_bitonic_ordering(g)
        if not isinstance(ord, RejectionWitness):
            d = draw_straightline(g, ord)
        d = drawing_from_text(drawing_to_text(g, d), g)
        assert graph_from_text(graph_to_text(g)) == g
        assert graph_from_json(graph_to_json(g)) == g
        assert check_upward_planar(g, d).ok
        assert set(vars(g)) == set(EmbeddedStGraph.__dataclass_fields__)


def test_draw_path_never_builds_edge_paths(monkeypatch, f1):
    # a drawing stores vertex points and one bend per bent edge; the path
    # of every edge is a view for SVG and for users, which drawing,
    # writing, reading, bounds checking and validating a valid drawing
    # never build (the validator builds it only to word a downward piece)
    def no_paths(d):
        raise AssertionError("the draw path built edge paths")

    monkeypatch.setattr(GridDrawing, "edge_paths", property(no_paths))
    for g in (f1, fan(50)):
        d = draw_polyline(g)
        d2 = drawing_from_text(drawing_to_text(g, d), g)
        assert d2.bend_points and check_bounds(d2, g.n, "polyline")
        assert check_upward_planar(g, d).ok and check_upward_planar(g, d2).ok


def test_pipeline_builds_no_per_point_view(monkeypatch, f1):
    # a drawing is a node table: drawing, writing, reading, validating and
    # bounds checking a valid drawing read its columns, and none of them
    # builds a tuple per vertex or bend
    def no_view(d):
        raise AssertionError("the pipeline built a per-point view")

    for name in ("coords", "bend_points", "bends", "edge_paths"):
        monkeypatch.setattr(GridDrawing, name, property(no_view))
    chorded = corpus(sizes=(50,), seeds=(1,))[0]
    for g in (f1, fan(50), chorded):
        d = draw_polyline(g)
        d2 = drawing_from_text(drawing_to_text(g, d), g)
        assert d2.bent and check_upward_planar(g, d2).ok
        assert check_bounds(d2, g.n, "polyline")


def test_drawing_holds_less_than_its_graph():
    # a poly-line drawing of fan(2000) is two columns over its vertices
    # and bends and the ids of its bent edges; its edge arrays are the
    # graph's own.  Measured by allocation, so no clock is involved
    text = graph_to_text(fan(2000))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = graph_from_text(text)
        gc.collect()
        parsed = tracemalloc.get_traced_memory()[0]
        d = draw_polyline(g)
        gc.collect()
        drawn = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert drawn - parsed <= 1.3 * (parsed - start), (drawn - parsed,
                                                      parsed - start)
    assert len(d.splits) == g.n - 3


def test_drawing_holds_at_most_one_bend_per_edge(f1):
    d = draw_polyline(f1)
    (e, p), = d.bend_points
    for bends in (((e, p), (e, (9, 9))), ((e, p), (e - 1, (9, 9))),
                  ((f1.m, p),), ((-1, p),)):
        with pytest.raises(ValueError, match="^bend edge ids must increase "
                                             "strictly and lie in 0..6$"):
            drawing_of(d, d.coords, bends)


def test_drawing_checks_its_columns(f1):
    # bent edge ids given in a list are kept as a tuple; the two columns
    # have one entry per node, and there are at least as many as bends
    d = draw_polyline(f1)
    listed = GridDrawing(x=d.x, y=d.y, tail=d.tail, head=d.head,
                         bent=list(d.bent))
    assert listed == d and listed.bent == (2,)
    assert drawing_to_text(f1, listed) == drawing_to_text(f1, d)
    with pytest.raises(ValueError, match="^drawing has 6 x and 5 y "):
        GridDrawing(x=d.x, y=d.y[:5], tail=d.tail, head=d.head, bent=(2,))
    with pytest.raises(ValueError, match=r"^drawing has more bends \(2\) "):
        GridDrawing(x=(0,), y=(0,), tail=d.tail, head=d.head, bent=(1, 2))


def test_svg_output(f1):
    d = draw_polyline(f1)
    svg = emit_svg(d, scale=20)
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == 5
    assert svg.count("<rect") == 1
    assert svg.count("<polyline") == f1.m
    with pytest.raises(ValueError):
        emit_svg(d, scale=0)


def test_svg_of_a_drawing_off_the_origin(triangle):
    # a drawing read from text may start anywhere; its SVG is the one of
    # the same drawing moved to the origin, every shape inside the canvas
    text = "0 10 10\n1 9 11\n2 10 12\nbend 0 2 11 11\n"
    svg = emit_svg(drawing_from_text(text, triangle))
    assert svg == emit_svg(drawing_from_text(
        "0 1 0\n1 0 1\n2 1 2\nbend 0 2 2 1\n", triangle))
    w, h = map(int, re.search(r'width="(\d+)" height="(\d+)"', svg).groups())
    xs = re.findall(r' (?:cx|x)="(-?\d+)"', svg)
    ys = re.findall(r' (?:cy|y)="(-?\d+)"', svg)
    for pts in re.findall(r'points="([^"]*)"', svg):
        for p in pts.split():
            x, y = p.split(",")
            xs.append(x)
            ys.append(y)
    assert len(xs) == len(ys) == 3 + 1 + 7
    assert all(0 <= int(x) <= w for x in xs)
    assert all(0 <= int(y) <= h for y in ys)


def test_drawing_is_deterministic(sixteen):
    a = draw_polyline(sixteen)
    b = draw_polyline(sixteen)
    assert a.coords == b.coords and a.edge_paths == b.edge_paths
    assert emit_svg(a) == emit_svg(b)


def test_many_splits_at_one_vertex_draw_in_linear_time():
    # the split edges all leave one vertex, so any per-edge scan of its
    # successor list makes the fold quadratic
    graphs = [zig(k) for k in (1001, 2001, 4001, 8001)]
    medians = [median(r) for r in doubling_ratios(draw_polyline, graphs)]
    assert all(m <= LINEAR_GATE for m in medians), medians
