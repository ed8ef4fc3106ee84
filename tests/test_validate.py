"""The geometric validator: reports, corruption detection, and the sweep."""

from __future__ import annotations

import ast
import inspect
import random
import re
from collections import Counter
from itertools import pairwise
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlayout import (GeneratorConfig, MissingCoordinate,
                      RejectionWitness, apply_splits, build_graph,
                      check_bounds, check_upward_planar, draw_polyline,
                      drawing_from_text, find_bitonic_ordering,
                      draw_straightline, generate_random_st_graph,
                      minimum_split_plan)
from stlayout import validate
from stlayout.validate import _find_proper_intersection
from conftest import LINEAR_GATE, comb_pieces, corpus, doubling_ratios, fan
from oracles import (all_pairs_intersection, drawing_of,
                     faces_ordered_by_chains, segments_properly_intersect,
                     sweep_input)
from test_golden import golden_graphs, perturbed


def test_report_fields(triangle):
    d = draw_straightline(triangle, find_bitonic_ordering(triangle))
    rep = check_upward_planar(triangle, d)
    assert rep.ok and rep.upward and rep.planar
    assert rep.width == 3 and rep.height == 2
    assert rep.bends_total == 0
    assert "upward   ok" in rep.to_text()
    assert '"planar": true' in rep.to_json()


def test_missing_coordinate(triangle, f1):
    d = draw_straightline(triangle, find_bitonic_ordering(triangle))
    # an extra coordinate, a missing one, and the drawing of another graph
    for coords in (d.coords + ((9, 9),), d.coords[:2]):
        with pytest.raises(MissingCoordinate,
                           match=r"^drawing has [24] coordinates for 3"):
            check_upward_planar(triangle, drawing_of(d, coords))
    with pytest.raises(MissingCoordinate, match="5 coordinates for 3"):
        check_upward_planar(triangle, draw_polyline(f1))
    path = build_graph(3, 0, 2, [[1], [2], []])
    with pytest.raises(MissingCoordinate, match="of another graph"):
        check_upward_planar(path, d)


def test_detects_downward_edge(triangle):
    rep = check_upward_planar(triangle,
                              drawing_of(triangle, ((0, 2), (1, 1), (2, 3))))
    assert not rep.upward
    assert not rep.ok
    # a bend below its tail makes a downward piece
    rep = check_upward_planar(triangle, drawing_from_text(
        "0 3 0\n1 0 1\n2 1 2\nbend 0 2 5 -1\n", triangle))
    assert not rep.upward
    assert rep.violations == ["edge 0->2 piece (3, 0)->(5, -1) is not "
                              "strictly upward"]


def test_detects_crossing(f1):
    d = draw_polyline(f1)
    coords = list(d.coords)
    # swap two vertices to force a crossing or duplicate geometry
    coords[1], coords[3] = coords[3], coords[1]
    rep = check_upward_planar(f1, drawing_of(d, coords, d.bend_points))
    assert not rep.ok


def test_detects_coincident_vertices(triangle):
    rep = check_upward_planar(triangle,
                              drawing_of(triangle, ((0, 0), (1, 1), (1, 1))))
    assert not rep.planar
    assert any("share" in v for v in rep.violations)
    # a bend on its tail's own point: a zero-length piece
    rep = check_upward_planar(triangle, drawing_from_text(
        "0 3 0\n1 0 1\n2 1 2\nbend 0 2 3 0\n", triangle))
    assert not rep.planar
    assert rep.violations[0] == "two vertices or bends share a coordinate"


def test_bounds_modes(triangle):
    d = draw_straightline(triangle, find_bitonic_ordering(triangle))
    assert check_bounds(d, 3, "straightline")
    assert check_bounds(d, 3, "polyline")
    with pytest.raises(ValueError):
        check_bounds(d, 3, "curvy")


def test_bounds_count_every_interior_point(triangle):
    # one valid bend within the straight-line box: it breaks both bounds,
    # since a triangle needs no split (n - 3 = 0)
    d = drawing_from_text("0 3 0\n1 0 1\n2 1 2\nbend 0 2 2 1\n", triangle)
    rep = check_upward_planar(triangle, d)
    assert rep.ok and rep.bends_total == 1 and rep.bends_max_per_edge == 1
    assert d.width <= 2 * triangle.n - 2 and d.height <= triangle.n - 1
    assert not check_bounds(d, triangle.n, "straightline")
    assert not check_bounds(d, triangle.n, "polyline")


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
        sweep = _find_proper_intersection(*sweep_input(pieces))
        assert (brute is None) == (sweep is None), pieces
        if sweep is not None:
            i, j = sweep
            assert segments_properly_intersect(*pieces[i], *pieces[j])
        verdicts.add((len(pieces) >= 12, brute is None))
    assert len(verdicts) == 4  # both verdicts occur, small and large


def _lane_polylines(rng, lanes, side, through, jump):
    """Pieces of one sweep-monotone polyline per lane, shuffled.

    Lane i spans x = 3i .. 3i + 2, so polylines in distinct lanes never
    meet and every bend is a point where one piece ends and one starts.
    A quarter of the steps continue the last piece collinearly, a few run
    horizontally to the right, and a ``jump`` share of them may land in
    the next lane.  ``through`` extra pieces then pass through the middle
    of a bend.  About a third of the pieces are given end first.
    """
    pieces, bends = [], []
    for i in range(lanes):
        lo = 3 * i
        a, prev = (lo + rng.randrange(3), rng.randrange(2)), None
        while True:
            b = None
            if prev is not None and rng.random() < 0.25:
                b = (2 * a[0] - prev[0], 2 * a[1] - prev[1])
                if not lo <= b[0] < lo + 3:
                    b = None
            if b is None and a[0] < lo + 2 and rng.random() < 0.1:
                b = (a[0] + 1, a[1])
            if b is None:
                width = 6 if rng.random() < jump else 3
                b = (lo + rng.randrange(width), a[1] + rng.randint(1, 2))
            if b[1] > side:
                break
            pieces.append((b, a) if rng.random() < 1 / 3 else (a, b))
            if prev is not None:
                bends.append(a)
            a, prev = b, a
    for _ in range(through if bends else 0):
        q, d = rng.choice(bends), rng.randint(-2, 2)
        pieces.append(((q[0] - d, q[1] - 1), (q[0] + d, q[1] + 1)))
    rng.shuffle(pieces)
    return pieces


def _ends_and_starts(pieces):
    """How many grid points end and start each number of pieces of
    nonzero length, as a Counter of (ends, starts), in the sweep's (y, x)
    order."""
    def order(p):
        return p[1], p[0]
    ends = Counter(max(a, b, key=order) for a, b in pieces if a != b)
    starts = Counter(min(a, b, key=order) for a, b in pieces if a != b)
    points = {p for seg in pieces for p in seg}
    return Counter((ends[p], starts[p]) for p in points)


@pytest.mark.parametrize("block", [validate._BLOCK, 2],
                         ids=["real-block", "block-2"])
def test_sweep_matches_bruteforce_on_lane_polylines(monkeypatch, block):
    # at most points one piece ends and one starts; some pieces run
    # through such a point or cross from the next lane
    monkeypatch.setattr(validate, "_BLOCK", block)
    rng = random.Random(7)
    verdicts, continued, points = set(), 0, 0
    for _ in range(400):
        pieces = _lane_polylines(rng, rng.randrange(1, 8),
                                 rng.randrange(4, 12),
                                 through=rng.choice((0, 0, 1, 2)),
                                 jump=rng.choice((0.0, 0.0, 0.1)))
        brute = all_pairs_intersection(pieces)
        sweep = _find_proper_intersection(*sweep_input(pieces))
        assert (brute is None) == (sweep is None), pieces
        if sweep is not None:
            i, j = sweep
            assert segments_properly_intersect(*pieces[i], *pieces[j])
        verdicts.add(brute is None)
        kinds = _ends_and_starts(pieces)
        continued += kinds[1, 1]
        points += kinds.total()
    assert verdicts == {True, False}
    assert continued > points / 2


@pytest.mark.parametrize("block", [validate._BLOCK, 2],
                         ids=["real-block", "block-2"])
def test_sweep_matches_bruteforce_on_combs(monkeypatch, block):
    # at most points one piece ends and none, two, three or more start;
    # at block size 2 such points empty and split blocks
    monkeypatch.setattr(validate, "_BLOCK", block)
    rng = random.Random(11)
    sets = [comb_pieces(rng, rng.randrange(2, 30), rng.randrange(2, 8),
                        collinear=rng.choice((0, 0, 1)),
                        through=rng.choice((0, 0, 1)),
                        wild=rng.choice((0.0, 0.0, 0.05)))
            for _ in range(500)]
    # three equal slopes after a piece's end, alone and beside others
    sets += [[((1, 0), (1, 1)), ((1, 1), (2, 2)), ((1, 1), (3, 3)),
              ((1, 1), (4, 4))],
             [((0, 2), (0, 4)), ((1, 0), (1, 1)), ((1, 1), (2, 2)),
              ((3, 3), (1, 1)), ((1, 1), (4, 4)), ((1, 1), (1, 3))]]
    verdicts, kinds = set(), Counter()
    for pieces in sets:
        brute = all_pairs_intersection(pieces)
        sweep = _find_proper_intersection(*sweep_input(pieces))
        assert (brute is None) == (sweep is None), pieces
        if sweep is not None:
            i, j = sweep
            assert segments_properly_intersect(*pieces[i], *pieces[j])
        verdicts.add(brute is None)
        for (e, s), c in _ends_and_starts(pieces).items():
            if e == 1:
                kinds[min(s, 4)] += c
    assert verdicts == {True, False}
    assert all(kinds[s] > 100 for s in (0, 2, 3, 4))


@pytest.mark.parametrize("pieces, hit", [
    # the path 2,0 -> 2,1 -> 2,2 -> 3,4 continues at 2,1 and 2,2, and a
    # diagonal runs through 2,2 from its left, or from its right
    ([((2, 0), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (3, 4)),
      ((0, 0), (4, 4))], (1, 3)),
    ([((2, 0), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (3, 4)),
      ((4, 0), (0, 4))], (1, 3)),
    # the path 2,0 -> 2,2 -> 0,4 continues at 2,2 across its left
    # neighbour x = 1
    ([((2, 0), (2, 2)), ((2, 2), (0, 4)), ((1, 0), (1, 4))], (1, 2)),
], ids=["through-left", "through-right", "continuing-crosses"])
def test_sweep_reports_at_a_continued_point(pieces, hit):
    assert _find_proper_intersection(*sweep_input(pieces)) == hit
    assert segments_properly_intersect(*pieces[hit[0]], *pieces[hit[1]])
    assert _find_proper_intersection(*sweep_input(pieces[:-1])) is None


@pytest.mark.parametrize("side", [1, -1], ids=["left-ends", "right-ends"])
def test_sweep_names_an_end_on_its_neighbour_at_once(side):
    # piece 0 ends inside piece 1 at (2, 2), from its left or, mirrored,
    # from its right; the pair is named where they become neighbours, at
    # y = 0, before pieces 2 and 3 cross
    pieces = [((0, 0), (2, 2)), ((2, 0), (2, 4)),
              ((10, 1), (12, 3)), ((12, 1), (10, 3))]
    pieces = [((side * ax, ay), (side * bx, by))
              for (ax, ay), (bx, by) in pieces]
    assert _find_proper_intersection(*sweep_input(pieces)) == (0, 1)
    assert _find_proper_intersection(*sweep_input(pieces[:2])) == (0, 1)
    assert _find_proper_intersection(*sweep_input(pieces[2:])) == (0, 1)


def test_sweep_names_the_first_two_overlapping_pieces_by_index():
    # three pieces up from one point: the first two in index order are
    # named, whatever their lengths
    pieces = [((0, 0), (0, 3)), ((0, 0), (0, 1)), ((0, 0), (0, 2))]
    assert _find_proper_intersection(*sweep_input(pieces)) == (0, 1)


GRID_POINT = st.tuples(st.integers(0, 5), st.integers(0, 5))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.one_of(
    st.tuples(GRID_POINT, GRID_POINT),
    GRID_POINT.map(lambda p: (p, p))), max_size=12))  # zero-length too
def test_sweep_verdict_matches_bruteforce_property(pieces):
    sweep = _find_proper_intersection(*sweep_input(pieces))
    assert (sweep is None) == (all_pairs_intersection(pieces) is None)
    if sweep is not None:
        i, j = sweep
        assert segments_properly_intersect(*pieces[i], *pieces[j])


# the triangle, f1 and fan(6)
SMALL_GRAPHS = (build_graph(3, 0, 2, [[1, 2], [2], []]),
                build_graph(5, 0, 4, [[1, 2, 3], [4], [1, 3], [4], []]),
                fan(6))


@st.composite
def small_drawings(draw):
    """A small graph drawn with random points on a 4 x 4 grid, or its own
    poly-line drawing with up to two points moved by one unit, and a
    random bend on some edges: equal y, downward pieces, shared points,
    zero-length pieces, touches and crossings are all common."""
    g = draw(st.sampled_from(SMALL_GRAPHS))
    point = st.tuples(st.integers(0, 3), st.integers(0, 3))
    if draw(st.booleans()):
        coords = draw(st.lists(point, min_size=g.n, max_size=g.n))
        bends = []
    else:
        d = draw_polyline(g)
        coords, bends = list(d.coords), list(d.bend_points)
        for v in draw(st.lists(st.integers(0, g.n - 1), max_size=2)):
            x, y = coords[v]
            coords[v] = (x + draw(st.integers(-1, 1)),
                         y + draw(st.integers(-1, 1)))
    bent = dict(bends)
    for e in draw(st.lists(st.integers(0, g.m - 1), max_size=3)):
        bent[e] = draw(point)
    return g, drawing_of(g, coords, sorted(bent.items()))


@settings(derandomize=True, database=None, max_examples=400)
@given(small_drawings())
def test_validator_verdicts_match_bruteforce_property(drawn):
    # through check_upward_planar: its node-id pieces, bends included, and
    # the sweep's re-orientation of pieces that do not rise
    g, d = drawn
    rep = check_upward_planar(g, d)
    pieces = [piece for path in d.edge_paths for piece in pairwise(path)]
    points = [*d.coords, *d.bends]
    assert rep.upward == all(a[1] < b[1] for a, b in pieces)
    assert rep.planar == (all_pairs_intersection(pieces) is None
                          and len(set(points)) == len(points))
    # a named pair holds two pieces of the drawing's own paths, upper
    # pieces of bent edges among them, and they do properly intersect
    for v in rep.violations:
        if named := re.fullmatch(r"edge pieces (.*) and (.*) properly "
                                 r"intersect", v):
            p, q = map(ast.literal_eval, named.groups())
            assert p in pieces and q in pieces, (v, d)
            assert segments_properly_intersect(*p, *q), (v, d)


def test_sweep_path_on_large_drawing():
    g = corpus(sizes=(900,), seeds=(3,), chords=False)[0]
    d = draw_polyline(g)
    pieces = [(a, b) for path in d.edge_paths
              for a, b in zip(path, path[1:])]
    assert len(pieces) > 1200
    assert _find_proper_intersection(*sweep_input(pieces)) is None
    rep = check_upward_planar(g, d)
    assert rep.ok


def test_sweep_finds_single_crossing_in_large_set():
    # a large grid of disjoint verticals plus one crossing pair
    pieces = [((3 * i, 0), (3 * i, 5)) for i in range(800)]
    pieces.append(((-10, 1), (-4, 4)))
    pieces.append(((-10, 4), (-4, 1)))
    hit = _find_proper_intersection(*sweep_input(pieces))
    assert hit == (800, 801)


def test_zero_length_pieces_validate_in_near_linear_time():
    # a bend on the tail's own point makes a zero-length piece on every
    # other edge; each one must cost a status lookup, not a scan
    drawings = []
    for n in (500, 1000, 2000):
        g = generate_random_st_graph(GeneratorConfig(n_target=n, seed=1))
        d = draw_polyline(g)
        bent = tuple((e, d.coords[g.tail[e]]) for e in range(0, g.m, 2))
        drawings.append((g, drawing_of(d, d.coords, bent)))
    rep = check_upward_planar(*drawings[0])
    assert not rep.planar
    assert any("share a coordinate" in v for v in rep.violations)
    ratios = doubling_ratios(lambda gd: check_upward_planar(*gd), drawings)
    medians = [median(r) for r in ratios]
    assert all(m <= LINEAR_GATE for m in medians), medians


def test_valid_drawings_never_reach_the_sweep(monkeypatch):
    # the faces certify every drawing the pipeline makes, fan(2000),
    # zig(1001) and the 10k seed graph among them: the sweep is for
    # drawings the faces cannot certify
    def no_sweep(*args):
        raise AssertionError("a valid drawing reached the crossing sweep")

    monkeypatch.setattr(validate, "_find_proper_intersection", no_sweep)
    graphs = golden_graphs()
    assert {g.n for g in graphs} >= {2000, 1003, 10_000}
    for g in graphs:
        # the straight-line drawing of g, or of its minimum split graph
        h, ord = g, find_bitonic_ordering(g)
        if isinstance(ord, RejectionWitness):
            h = apply_splits(g, minimum_split_plan(g))
            ord = find_bitonic_ordering(h)
        assert check_upward_planar(h, draw_straightline(h, ord)).ok
        assert check_upward_planar(g, draw_polyline(g)).ok


def test_validator_reads_only_the_rows_and_the_points():
    # the face check walks the successor rows; the in-edge ends, the corner
    # directions and the face walk all come from build_graph's own sweep,
    # so a check that read them would not be independent of it
    source = inspect.getsource(validate)
    assert [name for name in ("first_in", "last_in", "corner_dir",
                              "_face_chains") if name in source] == []


def test_planar_drawing_of_another_embedding_reaches_the_sweep(monkeypatch):
    # the triangle's face has s -> 1 -> t on its left; drawn mirrored, with
    # vertex 1 right of s -> t, the drawing is planar but not of this
    # embedding, so the faces cannot certify it and the sweep decides
    g = build_graph(3, 0, 2, [[1, 2], [2], []])
    swept = []

    def sweep(*args):
        swept.append(args)
        return _find_proper_intersection(*args)

    monkeypatch.setattr(validate, "_find_proper_intersection", sweep)
    for x, reaches in ((-1, False), (1, True)):
        rep = check_upward_planar(g, drawing_of(g, ((0, 0), (x, 1), (0, 2))))
        assert rep.ok and '"planar": true' in rep.to_json()
        assert bool(swept) == reaches
    # mirrored (x -> -x), fan(2000) and the golden 10k seed graph are
    # planar drawings of the mirrored embeddings, and their sweep status
    # holds thousands of pieces, many blocks of _BLOCK
    for g in (fan(2000), generate_random_st_graph(
            GeneratorConfig(n_target=10_000, seed=1))):
        d = draw_polyline(g)
        swept.clear()
        rep = check_upward_planar(g, drawing_of(
            d, [(-x, y) for x, y in d.coords],
            [(e, (-x, y)) for e, (x, y) in d.bend_points]))
        assert rep.ok and '"planar": true' in rep.to_json()
        assert swept


def _bends_moved(d, rng):
    """``d`` with 1-3 of its bends moved by up to two units."""
    bends = list(d.bend_points)
    for k in rng.sample(range(len(bends)), min(len(bends),
                                                rng.randint(1, 3))):
        e, (x, y) = bends[k]
        bends[k] = e, (x + rng.randint(-2, 2), y + rng.randint(-2, 2))
    return drawing_of(d, d.coords, bends)


def _face_check(g, d):
    """The face check's verdict on ``d``, None where it does not apply (two
    points shared, or a piece that does not rise); it must equal the
    verdict of the merge over listed chains."""
    points = [*d.coords, *d.bends]
    if len(set(points)) < len(points) or any(
            b[1] <= a[1] for path in d.edge_paths for a, b in pairwise(path)):
        return None
    verdict = validate._faces_ordered(d.x, d.y, *validate._subdivided(g, d))
    assert verdict == faces_ordered_by_chains(g, d), d
    return verdict


def test_face_check_matches_the_chain_lists_on_golden_drawings():
    # every drawing whose report the golden digests hold: each golden
    # graph's straight-line drawing (of its minimum split graph if it is
    # rejected), its poly-line drawing and, up to 100 vertices, three
    # perturbed ones drawn as test_golden draws them
    rng = random.Random(9)
    verdicts = Counter()
    for g in golden_graphs():
        h, ord = g, find_bitonic_ordering(g)
        if isinstance(ord, RejectionWitness):
            h = apply_splits(g, minimum_split_plan(g))
            ord = find_bitonic_ordering(h)
        poly = draw_polyline(g)
        drawn = [(h, draw_straightline(h, ord)), (g, poly)]
        if g.n <= 100:
            drawn += [(g, perturbed(g, poly, rng)) for _ in range(3)]
        for gd, d in drawn:
            verdicts[_face_check(gd, d)] += 1
    assert verdicts[True] > 100 and verdicts[False] > 0
    assert verdicts[None] > 0


def _holds_to_oracles(monkeypatch, g, d):
    """Where the face check applies to ``d`` (distinct points, rising
    pieces), it agrees with the merge over listed chains; where it
    certifies ``d``, the all-pairs oracle finds no crossing.  The report
    is the one the sweep alone gives.  Returns the check's verdict (None
    where it does not apply) and the report."""
    rep = check_upward_planar(g, d)
    certified = _face_check(g, d)
    if certified:
        pieces = [piece for path in d.edge_paths
                  for piece in pairwise(path)]
        assert all_pairs_intersection(pieces) is None, d
    with monkeypatch.context() as mp:
        mp.setattr(validate, "_faces_ordered", lambda *args: False)
        assert check_upward_planar(g, d) == rep, d
    return certified, rep


def test_face_check_is_sound_on_perturbed_drawings(monkeypatch):
    # test_golden's perturbed poly-line drawings, and each again with some
    # of its bends moved: points on other pieces, crossings, equal heights
    # and faces drawn mirrored all occur
    rng, bend_rng = random.Random(9), random.Random(10)
    verdicts = Counter()
    for g in golden_graphs():
        if g.n > 100:
            continue
        poly = draw_polyline(g)
        for _ in range(10):
            moved = perturbed(g, poly, rng)
            drawings = [moved]
            if moved.bend_points:
                drawings.append(_bends_moved(moved, bend_rng))
            for d in drawings:
                certified, rep = _holds_to_oracles(monkeypatch, g, d)
                verdicts[certified, rep.planar] += 1
    # both outcomes of the check occur, and planar drawings it cannot
    # certify among them
    assert verdicts[True, True] > 100 and verdicts[False, True] > 0
    assert verdicts[False, False] > 100


SMALL_CORPUS = corpus(sizes=(5, 8, 12, 20), seeds=range(3))


@st.composite
def moved_drawings(draw):
    """A small corpus graph's poly-line drawing with up to three of its
    vertices and bends moved by up to two units."""
    g = draw(st.sampled_from(SMALL_CORPUS))
    d = draw_polyline(g)
    coords, bends = list(d.coords), list(d.bend_points)
    step = st.integers(-2, 2)
    for k in draw(st.lists(st.integers(0, g.n + len(bends) - 1),
                           max_size=3)):
        if k < g.n:
            x, y = coords[k]
            coords[k] = x + draw(step), y + draw(step)
        else:
            e, (x, y) = bends[k - g.n]
            bends[k - g.n] = e, (x + draw(step), y + draw(step))
    return g, drawing_of(d, coords, bends)


@settings(derandomize=True, database=None, max_examples=300)
@given(moved_drawings())
def test_face_check_is_sound_property(drawn):
    g, d = drawn
    with pytest.MonkeyPatch.context() as mp:
        _holds_to_oracles(mp, g, d)
