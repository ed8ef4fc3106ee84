"""The geometric validator: reports, corruption detection, and the face
check held to independent crossing and embedding oracles."""

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
from conftest import LINEAR_GATE, corpus, doubling_ratios, fan
from oracles import (all_pairs_intersection, drawing_of,
                     drawn_rotation_matches, faces_ordered_by_chains,
                     listed_face_chains)
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


FACE_FAILURE = re.compile(
    r"face at vertex (\d+) between edges \1->(\d+) and \1->(\d+): point "
    r"(\(-?\d+, -?\d+\)) of its (left|right) chain is not \5 of its "
    r"(?:left|right) chain")


def _pieces_and_points(d):
    return ([piece for path in d.edge_paths for piece in pairwise(path)],
            [*d.coords, *d.bends])


def _oracle_planar(g, d):
    """Distinct points, rising pieces, no two pieces properly meeting (all
    pairs) and every row drawn clockwise: a planar drawing of ``g``'s
    embedding."""
    pieces, points = _pieces_and_points(d)
    return (len(set(points)) == len(points)
            and all(a[1] < b[1] for a, b in pieces)
            and all_pairs_intersection(pieces) is None
            and drawn_rotation_matches(g, d))


def _named_faces(g, d, rep):
    """How many failed faces ``rep`` names, after checking each: its corner
    lies between the two named successors of the named vertex, and the
    named point lies on the named chain of that face strictly below its
    sink, as ``listed_face_chains`` lists the chains."""
    chains = {c: (left, right) for c, _, left, right
              in listed_face_chains(g, d)}
    named = 0
    for v in rep.violations:
        if face := FACE_FAILURE.fullmatch(v):
            u, a, b = map(int, face.groups()[:3])
            row = g.head[g.out_start[u]:g.out_start[u + 1]]
            c = g.out_start[u] + row.index(a)
            assert g.tail[c + 1] == u and g.head[c + 1] == b, (v, d)
            left, right = chains[c]
            chain = left if face[5] == "left" else right
            assert ast.literal_eval(face[4]) in chain[:-1], (v, d)
            named += 1
    return named


@settings(derandomize=True, database=None, max_examples=400)
@given(small_drawings())
def test_validator_verdicts_match_bruteforce_property(drawn):
    # through check_upward_planar: its node-id pieces, bends included; a
    # drawing with distinct points and rising pieces fails at most one
    # face, named by a point of that face's own chains
    g, d = drawn
    rep = check_upward_planar(g, d)
    pieces, points = _pieces_and_points(d)
    assert rep.upward == all(a[1] < b[1] for a, b in pieces)
    assert rep.planar == _oracle_planar(g, d)
    applies = rep.upward and len(set(points)) == len(points)
    assert _named_faces(g, d, rep) == (applies and not rep.planar)


def test_zero_length_pieces_validate_in_near_linear_time():
    # a bend on the tail's own point makes a zero-length piece on every
    # other edge; the shared points alone decide the report
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


def test_validator_reads_only_the_rows_and_the_points():
    # the face check walks the successor rows; the in-edge ends, the corner
    # directions and the face walk all come from build_graph's own sweep,
    # so a check that read them would not be independent of it
    source = inspect.getsource(validate)
    assert [name for name in ("first_in", "last_in", "corner_dir",
                              "_face_chains") if name in source] == []


def test_planar_drawing_of_another_embedding_fails_its_face():
    # the triangle's face has s -> 1 -> t on its left; drawn mirrored, with
    # vertex 1 right of s -> t, the drawing is planar but not of this
    # embedding, and its face names vertex 1's point
    g = build_graph(3, 0, 2, [[1, 2], [2], []])
    rep = check_upward_planar(g, drawing_of(g, ((0, 0), (-1, 1), (0, 2))))
    assert rep.ok and '"planar": true' in rep.to_json()
    rep = check_upward_planar(g, drawing_of(g, ((0, 0), (1, 1), (0, 2))))
    assert rep.upward and '"planar": false' in rep.to_json()
    assert rep.violations == ["face at vertex 0 between edges 0->1 and "
                              "0->2: point (1, 1) of its left chain is not "
                              "left of its right chain"]
    # mirrored (x -> -x), fan(2000) and the golden 10k seed graph are
    # planar drawings of the mirrored embeddings: each fails its first
    # face, at the first corner in edge order
    for g in (fan(2000), generate_random_st_graph(
            GeneratorConfig(n_target=10_000, seed=1))):
        d = draw_polyline(g)
        mirrored = drawing_of(d, [(-x, y) for x, y in d.coords],
                              [(e, (-x, y)) for e, (x, y) in d.bend_points])
        rep = check_upward_planar(g, mirrored)
        assert rep.upward and not rep.planar
        c = next(e for e in range(g.m - 1) if g.tail[e] == g.tail[e + 1])
        u = g.tail[c]
        (v,) = rep.violations
        assert v.startswith(f"face at vertex {u} between edges "
                            f"{u}->{g.head[c]} and {u}->{g.head[c + 1]}: ")
        assert _named_faces(g, mirrored, rep) == 1


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
    pieces, points = _pieces_and_points(d)
    if len(set(points)) < len(points) or any(b[1] <= a[1]
                                             for a, b in pieces):
        return None
    tail, head, out_start = validate._subdivided(g, d)
    verdict = validate._misordered_face(
        d.x, d.y, [d.y[v] for v in head], tail, head, out_start) is None
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


def _holds_to_oracles(g, d):
    """Where the face check applies to ``d`` (distinct points, rising
    pieces), it agrees with the merge over listed chains, and the all-pairs
    oracle decides whether ``d`` is crossing-free; the report is planar
    exactly when ``d`` is also drawn in ``g``'s rotation, and a failed face
    is named by a point of its chains.  Returns the check's verdict and
    the crossing oracle's, both None where the check does not apply."""
    rep = check_upward_planar(g, d)
    certified, crossing_free = _face_check(g, d), None
    if certified is not None:
        pieces, _ = _pieces_and_points(d)
        crossing_free = all_pairs_intersection(pieces) is None
    assert rep.planar == (bool(crossing_free)
                          and drawn_rotation_matches(g, d)), d
    assert rep.planar == bool(certified), d
    assert _named_faces(g, d, rep) == (certified is False), d
    return certified, crossing_free


def test_face_check_is_sound_on_perturbed_drawings():
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
                verdicts[_holds_to_oracles(g, d)] += 1
    # both outcomes of the check occur, and crossing-free drawings of
    # another embedding, which it fails, among them
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
    _holds_to_oracles(*drawn)
