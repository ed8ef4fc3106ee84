"""Text/JSON graph round-trips and drawing files."""

from __future__ import annotations

from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlayout import (GraphFormatError, build_graph, draw_polyline,
                      drawing_from_text, drawing_to_text, graph_from_json,
                      graph_from_text, graph_to_json, graph_to_text,
                      load_graph)
from conftest import LINEAR_GATE, corpus, doubling_ratios, zig


def test_text_roundtrip(f1):
    text = graph_to_text(f1)
    assert text.splitlines()[0] == "5 0 4"
    g2 = graph_from_text(text)
    assert g2.succ == f1.succ and (g2.s, g2.t) == (f1.s, f1.t)


def test_text_comments_and_blanks(triangle):
    text = "# a comment\n\n3 0 2\n0: 1 2\n1: 2   # chord\n2:\n"
    g = graph_from_text(text)
    assert g.succ == triangle.succ


def test_json_roundtrip(sixteen):
    g2 = graph_from_json(graph_to_json(sixteen))
    assert g2.succ == sixteen.succ


def test_roundtrip_corpus():
    for g in corpus(sizes=(5, 20), seeds=range(5)):
        assert graph_from_text(graph_to_text(g)).succ == g.succ
        assert graph_from_json(graph_to_json(g)).succ == g.succ


@pytest.mark.parametrize("bad", [
    "",
    "3 0\n0: 1\n",
    "3 0 2\n0 1 2\n",
    "3 0 2\n0: 1\n0: 2\n",
    "3 0 2\n0: 7\n",
    "x y z\n",
    "100000000 0 1\n0: 1\n",  # n far beyond the vertex lines given
    # numbers that int() reads but that are not ASCII decimal integers
    "3 0 2\n0: 1 +2\n1: 2\n",
    "3 0 2\n0: 1 0_2\n1: 2\n",
    "3 0 2\n0: 1 2\n1: \u0662\n",
    "+3 0 2\n0: 1 2\n1: 2\n",
])
def test_malformed_text(bad):
    with pytest.raises(GraphFormatError):
        graph_from_text(bad)


MALFORMED_JSON = {
    "missing keys": '{"n": 3}',
    "not an object": '[3, 0, 2]',
    "string rows": '{"n": 3, "s": 0, "t": 2, "succ": ["12", "2", ""]}',
    "rows not a list": '{"n": 2, "s": 0, "t": 1, "succ": 5}',
    "float n": '{"n": 2.9, "s": 0, "t": 1, "succ": [[1], []]}',
    "float successor": '{"n": 2, "s": 0, "t": 1, "succ": [[1.7], []]}',
    "bool t": '{"n": 2, "s": 0, "t": true, "succ": [[1], []]}',
    "string n": '{"n": "2", "s": 0, "t": 1, "succ": [[1], []]}',
    "null s": '{"n": 2, "s": null, "t": 1, "succ": [[1], []]}',
    "infinite n": '{"n": Infinity, "s": 0, "t": 1, "succ": [[1], []]}',
    "overflowing successor": '{"n": 2, "s": 0, "t": 1, "succ": [[1e400], []]}',
    "deep array": ('{"n": 2, "s": 0, "t": 1, "succ": '
                   + "[" * 200_000 + "]" * 200_000 + "}"),
}


def test_malformed_json():
    # each case in turn, so that the test keeps one name
    for case, text in MALFORMED_JSON.items():
        with pytest.raises(GraphFormatError, match="^bad JSON graph: "):
            graph_from_json(text)


def test_load_graph_dispatch(tmp_path, triangle):
    t = tmp_path / "g.txt"
    t.write_text(graph_to_text(triangle))
    j = tmp_path / "g.json"
    j.write_text(graph_to_json(triangle))
    assert load_graph(str(t)).succ == triangle.succ
    assert load_graph(str(j)).succ == triangle.succ


def test_drawing_roundtrip(f1):
    d = draw_polyline(f1)
    text = drawing_to_text(f1, d)
    d2 = drawing_from_text(text, f1)
    assert d2.coords == d.coords
    assert d2.edge_paths == d.edge_paths


def test_drawing_requires_all_vertices(f1, triangle):
    with pytest.raises(GraphFormatError):
        drawing_from_text("0 0 0\n1 1 1\n", f1)
    # each vertex and each bent edge is given exactly once
    drawn = "0 3 0\n1 0 1\n2 1 2\n"
    for repeat in ("0 9 9\n", "bend 0 2 2 1\nbend 0 2 2 2\n"):
        with pytest.raises(GraphFormatError, match="line [45]: duplicate"):
            drawing_from_text(drawn + repeat, triangle)
    # numbers are ASCII decimal integers, though int() takes more
    for bad, line in (("0 3 0\n+1 0 1\n2 1 2\n", 2),
                      ("0 3 0\n1 0 1\n2 \uff12 2\n", 3),
                      ("0 0_0 0\n1 0 1\n2 1 2\n", 1)):
        with pytest.raises(GraphFormatError,
                           match=f"line {line}: numbers must be ASCII"):
            drawing_from_text(bad, triangle)
    # a bend line must name an edge: out of range, negative, reversed,
    # and a pair of vertices without an edge
    vertices = "".join(f"{v} {v} {v}\n" for v in range(f1.n))
    for bend in ("bend 7 1 3 3", "bend -3 1 3 3", "bend 1 0 3 3",
                 "bend 0 4 3 3"):
        with pytest.raises(GraphFormatError):
            drawing_from_text(vertices + bend + "\n", f1)


SMALL = st.integers(-6, 8)
VERTEX_LINE = st.builds("{} {} {}".format, SMALL, SMALL, SMALL)
BEND_LINE = st.builds("bend {} {} {} {}".format, SMALL, SMALL, SMALL, SMALL)


@settings(derandomize=True, database=None)
@given(st.lists(st.tuples(SMALL, SMALL), min_size=5, max_size=5),
       st.lists(st.one_of(VERTEX_LINE, BEND_LINE), max_size=6))
def test_drawing_lines_parse_or_raise_format_error(coords, extra):
    # the canonical rejected graph of the f1 fixture
    g = build_graph(5, 0, 4, [[1, 2, 3], [4], [1, 3], [4], []])
    lines = [f"{v} {x} {y}" for v, (x, y) in enumerate(coords)] + extra
    try:
        d = drawing_from_text("\n".join(lines) + "\n", g)
    except GraphFormatError:
        return
    assert len(d.coords) == g.n and len(d.edge_paths) == g.m


def test_drawing_from_text_many_bends_at_one_vertex_linear():
    graphs = [zig(k) for k in (1001, 2001, 4001, 8001)]
    inputs = [(drawing_to_text(g, draw_polyline(g)), g) for g in graphs]
    # every one of the (k-1)/2 split out-edges of s carries a bend line
    assert all(text.count("bend") == (g.n - 3) // 2 for text, g in inputs)
    ratios = doubling_ratios(lambda arg: drawing_from_text(*arg), inputs)
    medians = [median(r) for r in ratios]
    assert all(m <= LINEAR_GATE for m in medians), medians
