"""Text/JSON graph round-trips and drawing files."""

from __future__ import annotations

import random
from dataclasses import replace
from statistics import median

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stlayout import (BitonicOrdering, GraphFormatError, StGraphError,
                      build_graph,
                      check_bounds, check_upward_planar, draw_polyline,
                      draw_straightline, drawing_from_text, drawing_to_text,
                      find_bitonic_ordering, graph_from_json,
                      graph_from_text, graph_to_json, graph_to_text,
                      load_graph)
from stlayout import io
from conftest import LINEAR_GATE, corpus, doubling_ratios, fan, zig
from oracles import drawing_of


def test_text_roundtrip(f1):
    text = graph_to_text(f1)
    assert text.splitlines()[0] == "5 0 4"
    assert graph_from_text(text) == f1


def test_text_comments_and_blanks(triangle):
    text = "# a comment\n\n3 0 2\n0: 1 2\n1: 2   # chord\n2:\n"
    assert graph_from_text(text) == triangle


def test_json_roundtrip(sixteen):
    assert graph_from_json(graph_to_json(sixteen)) == sixteen


def test_roundtrip_corpus():
    for g in corpus(sizes=(5, 20), seeds=range(5)):
        assert graph_from_text(graph_to_text(g)) == g
        assert graph_from_json(graph_to_json(g)) == g


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
    assert load_graph(str(t)) == triangle
    assert load_graph(str(j)) == triangle


def test_drawing_roundtrip(f1):
    # the whole drawing comes back, its split edges included
    graphs = [f1, fan(50)] + corpus(sizes=(12, 40), seeds=range(4))
    drawings = [draw_polyline(g) for g in graphs]
    assert len(drawings[1].splits) == 47
    assert sum(bool(d.bend_points) for d in drawings) > 2
    for g, d in zip(graphs, drawings):
        d2 = drawing_from_text(drawing_to_text(g, d), g)
        assert d2 == d and d2.splits == d.splits


def test_drawing_text_refuses_paths_it_cannot_hold(triangle):
    # the text holds one point per vertex and the graph's own edges: a
    # drawing of another graph is refused, not cut to size
    d = draw_polyline(triangle)
    for coords in (d.coords + ((9, 9),), d.coords[:2]):
        with pytest.raises(ValueError, match=r"^drawing has [24] "
                                             r"coordinates for 3 vertices$"):
            drawing_to_text(triangle, drawing_of(d, coords))
    path = build_graph(3, 0, 2, [[1], [2], []])
    with pytest.raises(ValueError, match="^drawing is of another graph"):
        drawing_to_text(path, d)
    # equal edge arrays are the graph's own, shared or not
    copy = replace(d, tail=tuple(list(d.tail)), head=tuple(list(d.head)))
    assert copy.tail is not triangle.tail
    assert drawing_to_text(triangle, copy) == drawing_to_text(triangle, d)


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


@st.composite
def forward_rows(draw):
    """``(n, s, t, rows)`` for ``n <= 7`` with every successor above its
    tail, in a drawn order: acyclic, and often a planar st-graph."""
    n = draw(st.integers(2, 7))
    rows = [draw(st.permutations(range(u + 1, n)))[:draw(st.integers(1, 3))]
            for u in range(n - 1)]
    return n, 0, n - 1, rows + [[]]


@st.composite
def any_rows(draw):
    """``(n, s, t, rows)`` with ``n <= 7`` and any ids near ``0..n-1``."""
    n = draw(st.integers(0, 7))
    vertex = st.integers(-1, n)
    rows = draw(st.lists(st.lists(vertex, max_size=4),
                         min_size=max(n - 1, 0), max_size=n + 1))
    return n, draw(vertex), draw(vertex), rows


@settings(derandomize=True, database=None, max_examples=400)
@given(st.one_of(forward_rows(), any_rows()))
def test_successor_lists_build_or_raise_st_graph_error(args):
    # any other exception fails the test
    try:
        build_graph(*args)
    except StGraphError:
        pass


@settings(derandomize=True, database=None, max_examples=200)
@given(forward_rows())
def test_built_graphs_round_trip_and_draw_within_bounds(args):
    try:
        g = build_graph(*args)
    except StGraphError:
        assume(False)
    assert graph_from_text(graph_to_text(g)) == g
    assert graph_from_json(graph_to_json(g)) == g
    d = draw_polyline(g)
    assert check_upward_planar(g, d).ok and check_bounds(d, g.n, "polyline")


TRIANGLE = build_graph(3, 0, 2, [[1, 2], [2], []])
DOCUMENTS = (["3 0 2", "0: 1 2", "1: 2", "2:"],
             ["0 3 0", "1 0 1", "2 1 2", "bend 0 2 2 1"])
TOKEN = st.sampled_from(["0", "1", "2", "-1", "0:", ":", "bend", "#",
                         "# note"])
ODD_NUMBER = st.sampled_from(["+2", "0_2", "\u0662", "\uff12"])


@st.composite
def texts(draw):
    """A graph or drawing text of the triangle, with a few lines added or
    one number written oddly, whitespace varied and any of the line
    breaks ``splitlines`` knows."""
    lines = list(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     " ".join(draw(st.lists(TOKEN, max_size=4))))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].replace("2", draw(ODD_NUMBER), 1)
    out = []
    for line in lines:
        space = draw(st.sampled_from([" ", "\t", " \x0c "]))
        out += [draw(st.sampled_from(["", " ", "\t"])),
                line.replace(" ", space),
                draw(st.sampled_from(["", "", "", " ", " # note"])),
                draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c"]))]
    return "".join(out)


def parse_outcome(text):
    """What each parser makes of ``text``: its result or its error."""
    outcome = []
    for parse in (lambda: graph_from_text(text),
                  lambda: drawing_from_text(text, TRIANGLE).edge_paths):
        try:
            outcome.append(parse())
        except StGraphError as exc:
            outcome.append((type(exc).__name__, str(exc)))
    return outcome


@settings(derandomize=True, database=None, max_examples=400)
@given(texts())
def test_text_tested_once_parses_as_line_by_line(text):
    # a text without '#', '+', '_' and non-ASCII characters is checked as
    # a whole; a last line "#" is blank once cut, so it changes no result,
    # and it sends the text down the line-by-line path
    assert parse_outcome(text) == parse_outcome(text + "\n#")


def read_outcome(read, text, g):
    """The drawing ``read`` makes of ``text``, with its bent edges, or the
    type and message of what it raised."""
    try:
        d = read(text, g)
    except StGraphError as exc:
        return type(exc), str(exc)
    return d, d.bent


def swap_lines(rng, lines, g):
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]


def crlf(rng, lines, g):
    """A CRLF line break after one line or after every line."""
    for i in [rng.randrange(len(lines))] if rng.random() < 0.5 \
            else range(len(lines)):
        lines[i] += "\r"


def comment(rng, lines, g):
    i = rng.randrange(len(lines))
    if rng.random() < 0.5:
        lines.insert(i, "# note")
    else:
        lines[i] += " # note"


def respace(rng, lines, g):
    i = rng.randrange(len(lines))
    lines[i] = lines[i].replace(" ", rng.choice(["  ", "\t", " \t"]), 1)


def retoken(rng, lines, g):
    """A leading zero or a minus sign on one number of one line."""
    i = rng.randrange(len(lines))
    tokens = lines[i].split(" ")
    j = rng.randrange(tokens[0] == "bend", len(tokens))
    if rng.random() < 0.5:
        tokens[j] = tokens[j].replace("-", "-0") if "-" in tokens[j] \
            else "0" + tokens[j]
    else:
        tokens[j] = "-" + tokens[j]
    lines[i] = " ".join(tokens)


def duplicate_line(rng, lines, g):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))


def foreign_bend(rng, lines, g):
    u, v = rng.randrange(-1, g.n + 1), rng.randrange(-1, g.n + 1)
    lines.insert(rng.randrange(len(lines) + 1), f"bend {u} {v} 3 3")


def delete_line(rng, lines, g):
    del lines[rng.randrange(len(lines))]


MUTATIONS = (swap_lines, crlf, comment, respace, retoken, duplicate_line,
             foreign_bend, delete_line)


@pytest.mark.parametrize("chunk", [io._CHUNK, 20])
def test_mutated_written_texts_read_as_line_by_line(monkeypatch, chunk):
    # a drawing text as drawing_to_text writes it, changed in one to three
    # ways, its final newline sometimes dropped: the bulk read gives the
    # line reader's drawing or, through the line reader, its error, word
    # for word, whether the text is split whole or a few lines at a time
    monkeypatch.setattr(io, "_CHUNK", chunk)
    graphs = [TRIANGLE, fan(6), fan(9), zig(9)]
    graphs += corpus(sizes=(12, 25), seeds=range(3))
    written = [(g, drawing_to_text(g, draw_polyline(g)).splitlines())
               for g in graphs]
    bulk, read_in_bulk = [], io._written_drawing

    def logged_bulk_read(text, g):
        bulk.append(read_in_bulk(text, g))
        return bulk[-1]

    monkeypatch.setattr(io, "_written_drawing", logged_bulk_read)
    rng, raised = random.Random(34), 0
    for _ in range(3000):
        g, lines = rng.choice(written)
        lines = list(lines)
        for mutate in rng.choices(MUTATIONS, k=rng.randint(1, 3)):
            mutate(rng, lines, g)
        text = "\n".join(lines) + rng.choice(["\n"] * 7 + [""])
        outcome = read_outcome(drawing_from_text, text, g)
        assert outcome == read_outcome(io._drawing_from_lines, text, g), text
        raised += isinstance(outcome[0], type)
    # each reader made drawings, and the line reader raised
    taken = sum(d is not None for d in bulk)
    assert taken > 100 and raised > 1000 and 3000 - taken - raised > 1000


@pytest.mark.parametrize("chunk", [io._CHUNK, 1])
def test_written_drawings_take_the_bulk_path(monkeypatch, chunk):
    # every text drawing_to_text writes is read in bulk, split a chunk of
    # whole lines at a time: a change to the writer cannot fall back to
    # the line reader unseen
    def by_line(text, g):
        raise AssertionError("read line by line")

    monkeypatch.setattr(io, "_drawing_from_lines", by_line)
    monkeypatch.setattr(io, "_CHUNK", chunk)
    graphs = corpus(sizes=(6, 12, 25, 50), seeds=range(4))
    graphs += corpus(sizes=(6, 12, 25, 50), seeds=range(4), chords=False)
    graphs += [fan(50), fan(2000)] + [zig(k) for k in (3, 9, 101, 1001)]
    drawings = [(g, draw_polyline(g)) for g in graphs]
    orders = [(g, find_bitonic_ordering(g)) for g in graphs]
    drawings += [(g, draw_straightline(g, o)) for g, o in orders
                 if isinstance(o, BitonicOrdering)]
    bent = sum(bool(d.bent) for _, d in drawings)
    assert bent > 10 and len(drawings) - len(graphs) > 10
    for g, d in drawings:
        assert drawing_from_text(drawing_to_text(g, d), g) == d


def test_drawing_from_text_many_bends_at_one_vertex_linear():
    graphs = [zig(k) for k in (1001, 2001, 4001, 8001)]
    inputs = [(drawing_to_text(g, draw_polyline(g)), g) for g in graphs]
    # every one of the (k-1)/2 split out-edges of s carries a bend line
    assert all(text.count("bend") == (g.n - 3) // 2 for text, g in inputs)
    ratios = doubling_ratios(lambda arg: drawing_from_text(*arg), inputs)
    medians = [median(r) for r in ratios]
    assert all(m <= LINEAR_GATE for m in medians), medians
