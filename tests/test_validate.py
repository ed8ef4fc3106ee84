"""The geometric validator: reports, corruption detection, and the sweep."""

from __future__ import annotations

import random
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlayout import (GeneratorConfig, GridDrawing, MissingCoordinate,
                      check_bounds, check_upward_planar, draw_polyline,
                      find_bitonic_ordering, draw_straightline,
                      generate_random_st_graph)
from stlayout import validate
from stlayout.validate import _find_proper_intersection
from conftest import LINEAR_GATE, corpus, doubling_ratios
from oracles import all_pairs_intersection, segments_properly_intersect


def test_report_fields(triangle):
    d = draw_straightline(triangle, find_bitonic_ordering(triangle))
    rep = check_upward_planar(triangle, d)
    assert rep.ok and rep.upward and rep.planar
    assert rep.width == 3 and rep.height == 2
    assert rep.bends_total == 0
    assert "upward   ok" in rep.to_text()
    assert '"planar": true' in rep.to_json()


def test_missing_coordinate(triangle):
    d = GridDrawing(coords=((0, 0), (1, 1)), edge_paths=())
    with pytest.raises(MissingCoordinate):
        check_upward_planar(triangle, d)
    # every edge needs a path
    d = draw_straightline(triangle, find_bitonic_ordering(triangle))
    for paths in ((), d.edge_paths[:2], d.edge_paths + d.edge_paths[:1]):
        with pytest.raises(MissingCoordinate, match=r"\d edge paths for 3"):
            check_upward_planar(
                triangle, GridDrawing(coords=d.coords, edge_paths=paths))


def test_detects_downward_edge(triangle):
    coords = ((0, 2), (1, 1), (2, 3))
    paths = tuple((coords[triangle.tail[e]], coords[triangle.head[e]])
                  for e in range(3))
    rep = check_upward_planar(
        triangle, GridDrawing(coords=coords, edge_paths=paths))
    assert not rep.upward
    assert not rep.ok
    # upward paths that never touch the vertices, placed downward, and a
    # path of one point
    coords = ((0, 5), (1, 3), (0, 0))
    paths = (((5, 0), (5, 1)), ((6, 0), (6, 1)), ((1, 3),))
    rep = check_upward_planar(
        triangle, GridDrawing(coords=coords, edge_paths=paths))
    assert not rep.ok
    assert rep.violations == ["edge 0->1 path must run from (0, 5) to (1, 3)",
                              "edge 0->2 path must run from (0, 5) to (0, 0)",
                              "edge 1->2 path must run from (1, 3) to (0, 0)"]


def test_detects_crossing(f1):
    d = draw_polyline(f1)
    coords = list(d.coords)
    # swap two vertices to force a crossing or duplicate geometry
    coords[1], coords[3] = coords[3], coords[1]
    paths = []
    for e in range(f1.m):
        paths.append((tuple(coords[f1.tail[e]]), tuple(coords[f1.head[e]])))
    rep = check_upward_planar(
        f1, GridDrawing(coords=tuple(coords), edge_paths=tuple(paths)))
    assert not rep.ok


def test_detects_coincident_vertices(triangle):
    coords = ((0, 0), (1, 1), (1, 1))
    paths = tuple((coords[triangle.tail[e]], coords[triangle.head[e]])
                  for e in range(3))
    rep = check_upward_planar(
        triangle, GridDrawing(coords=coords, edge_paths=paths))
    assert not rep.planar
    assert any("share" in v for v in rep.violations)


def test_bounds_modes(triangle):
    d = draw_straightline(triangle, find_bitonic_ordering(triangle))
    assert check_bounds(d, 3, "straightline")
    assert check_bounds(d, 3, "polyline")
    with pytest.raises(ValueError):
        check_bounds(d, 3, "curvy")


def _random_pieces(rng, k, side, zero_share, reach=None):
    """k pieces on a side x side grid, about zero_share of them points.

    With ``reach`` the far end lies within that many units of the near
    one, which keeps large sparse sets free of crossings often enough.
    """
    pieces = []
    for _ in range(k):
        a = (rng.randrange(side), rng.randrange(side))
        if zero_share and rng.random() < zero_share:
            b = a
        elif reach is None:
            b = (rng.randrange(side), rng.randrange(side))
        else:
            b = (a[0] + rng.randint(-reach, reach),
                 a[1] + rng.randint(-reach, reach))
        pieces.append((a, b))
    return pieces


@pytest.mark.parametrize("block", [validate._BLOCK, 2],
                         ids=["real-block", "block-2"])
def test_sweep_matches_bruteforce_on_random_pieces(monkeypatch, block):
    # at block size 2 most status changes cross a block boundary
    monkeypatch.setattr(validate, "_BLOCK", block)
    rng = random.Random(42)
    sets = [_random_pieces(rng, rng.randrange(2, 12), 8, 0.0)
            for _ in range(600)]
    sets += [_random_pieces(rng, rng.randrange(2, 12), 8, 1 / 3)
             for _ in range(600)]
    for _ in range(40):
        k = rng.randrange(12, 301)
        sets.append(_random_pieces(rng, k, k + 2, rng.choice((0, 1 / 3)),
                                   reach=2))
    verdicts = set()
    for pieces in sets:
        brute = all_pairs_intersection(pieces)
        sweep = _find_proper_intersection(pieces)
        assert (brute is None) == (sweep is None), pieces
        if sweep is not None:
            i, j = sweep
            assert segments_properly_intersect(*pieces[i], *pieces[j])
        verdicts.add((len(pieces) >= 12, brute is None))
    assert len(verdicts) == 4  # both verdicts occur, small and large


GRID_POINT = st.tuples(st.integers(0, 5), st.integers(0, 5))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.one_of(
    st.tuples(GRID_POINT, GRID_POINT),
    GRID_POINT.map(lambda p: (p, p))), max_size=12))  # zero-length too
def test_sweep_verdict_matches_bruteforce_property(pieces):
    sweep = _find_proper_intersection(pieces)
    assert (sweep is None) == (all_pairs_intersection(pieces) is None)
    if sweep is not None:
        i, j = sweep
        assert segments_properly_intersect(*pieces[i], *pieces[j])


def test_sweep_path_on_large_drawing():
    g = corpus(sizes=(900,), seeds=(3,), chords=False)[0]
    d = draw_polyline(g)
    pieces = [(a, b) for path in d.edge_paths
              for a, b in zip(path, path[1:])]
    assert len(pieces) > 1200
    assert _find_proper_intersection(pieces) is None
    rep = check_upward_planar(g, d)
    assert rep.ok


def test_sweep_finds_single_crossing_in_large_set():
    # a large grid of disjoint verticals plus one crossing pair
    pieces = [((3 * i, 0), (3 * i, 5)) for i in range(800)]
    pieces.append(((-10, 1), (-4, 4)))
    pieces.append(((-10, 4), (-4, 1)))
    hit = _find_proper_intersection(pieces)
    assert hit == (800, 801)


def test_zero_length_pieces_validate_in_near_linear_time():
    # a bend on the tail's own point makes a zero-length piece on every
    # other edge; each one must cost a status lookup, not a scan
    drawings = []
    for n in (500, 1000, 2000):
        g = generate_random_st_graph(GeneratorConfig(n_target=n, seed=1))
        d = draw_polyline(g)
        paths = tuple((a, a, c) if e % 2 == 0 else (a, c)
                      for e, (a, c) in enumerate(d.edge_paths))
        drawings.append((g, GridDrawing(coords=d.coords, edge_paths=paths)))
    rep = check_upward_planar(*drawings[0])
    assert not rep.planar
    assert any("share a coordinate" in v for v in rep.violations)
    ratios = doubling_ratios(lambda gd: check_upward_planar(*gd), drawings)
    medians = [median(r) for r in ratios]
    assert all(m <= LINEAR_GATE for m in medians), medians
