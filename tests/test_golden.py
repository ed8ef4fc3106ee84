"""Golden outputs: one sha256 per output family over a fixed corpus.

A change meant to keep every output byte-identical must leave each digest
in ``golden.json`` as it is.  A change that alters outputs on purpose
regenerates the file with ``PYTHONPATH=src python tests/test_golden.py``,
which prints each family whose digest moved, and says why they moved.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from stlayout import (GeneratorConfig, RejectionWitness,
                      apply_splits, check_bounds, check_upward_planar,
                      compute_faces,
                      draw_polyline,
                      draw_straightline, drawing_to_text,
                      find_bitonic_ordering, generate_random_st_graph,
                      graph_to_json, graph_to_text, minimum_split_plan,
                      transitive_split_plan)
from stlayout.cli import cli_main
from stlayout.ordering import ordering_to_text, witness_to_text
from stlayout.splitting import plan_to_text
from conftest import all_fixture_graphs, corpus, fan, zig
from oracles import drawing_of, gap_faces, split_dummies

GOLDEN = Path(__file__).with_name("golden.json")
FAMILIES = ("graph", "ordering", "plan", "split", "faces", "straightline",
            "polyline", "validation", "perturbed", "bounds", "cli")

# the malformed inputs of test_cli: graph files, then drawings of the
# triangle, each as (file name, bytes)
BAD_GRAPHS = (
    ("bad.txt", b"3 0 2\n0: 1 1\n1: 2\n2:\n"),
    ("g.txt", b"3 0 2\n0: 1 +2\n1: 2\n"),
    ("g.json", b'{"n": 3, "s": 0, "t": 2, "succ": [[1, 2], [true], []]}'),
    ("g.json", b'{"n": 3, "s": 0, "t": 2, "succ": [[1, 2], [2]]}'),
    ("g.txt", b"2 0 1\n0: 5\n"),
    ("g.txt", b"2 0 1\n0: 1\n1: 0\n"),
    ("g.txt", b"3 0 1\n0: 1\n1: 2\n2: 1\n"),
    ("g.txt", b"3 0 2\n0: 1\n5: 2\n"),
    ("latin1.txt", b"3 0 2\n0: 1 2\n1: 2\n2:\n# caf\xe9\n"),
)
BAD_DRAWINGS = (
    ("bad.txt", b"0 0 0\n1 1 1\n2 2 0\n"),
    ("bad.txt", b"0 3 0\n1 0 1\n2 1 2\nbend 7 1 3 3\n"),
    ("bad.txt", b"0 3 0\n1 0 1\n2 1 2\nbend -3 1 3 3\n"),
    ("bad.txt", b"0 3 0\n1 0 1\n2 1 2\n0 9 9\n"),
    ("drawing.txt", b"0 0 0\n# caf\xe9\n"),
)


def golden_graphs():
    sizes = range(5, 101, 5)
    graphs = all_fixture_graphs()
    graphs += corpus(sizes=sizes, seeds=range(2))
    graphs += corpus(sizes=sizes, seeds=range(2), chords=False)
    graphs += [fan(k) for k in (4, 5, 50, 2000)]
    graphs += [zig(k) for k in (3, 5, 9, 101, 1001)]
    graphs.append(generate_random_st_graph(
        GeneratorConfig(n_target=10_000, seed=1)))
    return graphs


def ordering_text(g, ord):
    if isinstance(ord, RejectionWitness):
        return witness_to_text(ord)
    return ordering_to_text(ord) + repr(gap_faces(g))


def faces_text(g):
    fi = compute_faces(g)
    return repr((fi.face_source, fi.face_sink, g.corner_dir,
                 fi.outer_face, fi.face_of_dart))


def perturbed(g, d, rng):
    """``d`` with 1-3 vertices moved by a few units; the edges move along
    and the bends stay."""
    coords = list(d.coords)
    for v in rng.sample(range(g.n), min(g.n, rng.randint(1, 3))):
        x, y = coords[v]
        coords[v] = (x + rng.randint(-3, 3), y + rng.randint(-3, 3))
    return drawing_of(d, coords, d.bend_points)


def bounds_text(d, n):
    return repr([check_bounds(d, n, mode)
                 for mode in ("straightline", "polyline")])


def cli_outputs():
    """Exit code, stdout and stderr of ``cli_main`` on every command over
    the fixture graphs, as text and as JSON, on ``gen`` and on malformed
    files; the temporary directory's path reads ``<tmp>``."""
    with tempfile.TemporaryDirectory() as tmp:
        def run(*argv):
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(list(argv))
            return (f"{code}\0{out.getvalue()}\0{err.getvalue()}"
                    .replace(tmp, "<tmp>"))

        def put(name, data):
            path = Path(tmp, name)
            path.write_bytes(data)
            return str(path)

        for i, g in enumerate(all_fixture_graphs()):
            drawing = put(f"d{i}.txt",
                          drawing_to_text(g, draw_polyline(g)).encode())
            for ext, text in (("txt", graph_to_text(g)),
                              ("json", graph_to_json(g))):
                path = put(f"g{i}.{ext}", text.encode())
                for argv in (["check"], ["order"], ["split"],
                             ["split", "--all-transitive"], ["draw"],
                             ["draw", "--mode", "straight"]):
                    yield run(*argv, path)
                yield run("validate", path, drawing)
                yield run("validate", path, drawing, "--json")
        yield run("gen", "--n", "50", "--seed", "7")
        tri = put("tri.txt", graph_to_text(all_fixture_graphs()[0]).encode())
        for name, data in BAD_GRAPHS:
            path = put(name, data)
            yield run("check", path)
            yield run("validate", path, tri)
        for name, data in BAD_DRAWINGS:
            yield run("validate", tri, put(name, data))
        yield run("check", "/no/such/file")
        yield run("check", tmp)


def digests() -> dict[str, str]:
    h = {name: hashlib.sha256() for name in FAMILIES}

    def put(family, text):
        h[family].update(text.encode() + b"\0")

    rng = random.Random(9)
    for g in golden_graphs():
        put("graph", graph_to_text(g) + graph_to_json(g))
        put("faces", faces_text(g))
        ord = find_bitonic_ordering(g)
        put("ordering", ordering_text(g, ord))
        for plan in (minimum_split_plan(g), transitive_split_plan(g)):
            put("plan", plan_to_text(g, plan) + repr(plan.apex))
            split = apply_splits(g, plan)
            put("split", graph_to_text(split)
                + repr(sorted(split_dummies(g, split).items())))
            put("faces", faces_text(split))
        # the straight-line drawing of g, or of its minimum split graph
        if isinstance(ord, RejectionWitness):
            h_graph = apply_splits(g, minimum_split_plan(g))
            ord = find_bitonic_ordering(h_graph)
            put("ordering", ordering_text(h_graph, ord))
        else:
            h_graph = g
        straight = draw_straightline(h_graph, ord)
        put("straightline", drawing_to_text(h_graph, straight))
        put("validation", check_upward_planar(h_graph, straight).to_json())
        put("bounds", bounds_text(straight, h_graph.n))
        poly = draw_polyline(g)
        put("polyline", drawing_to_text(g, poly))
        put("validation", check_upward_planar(g, poly).to_json())
        put("bounds", bounds_text(poly, g.n))
        if g.n <= 100:
            for _ in range(3):
                moved = perturbed(g, poly, rng)
                put("perturbed", check_upward_planar(g, moved).to_json())
                put("bounds", bounds_text(moved, g.n))
    for text in cli_outputs():
        put("cli", text)
    return {name: h[name].hexdigest() for name in FAMILIES}


def test_outputs_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert [f for f in FAMILIES if got[f] != want[f]] == []


if __name__ == "__main__":
    old, new = json.loads(GOLDEN.read_text()), digests()
    for family in FAMILIES:
        if new[family] != old.get(family):
            print(f"{family}: {old.get(family)} -> {new[family]}")
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
