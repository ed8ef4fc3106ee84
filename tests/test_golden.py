"""Golden outputs: one sha256 per output family over a fixed corpus.

A change meant to keep every output byte-identical must leave each digest
in ``golden.json`` as it is.  A change that alters outputs on purpose
regenerates the file with ``PYTHONPATH=src python tests/test_golden.py``
and says which families moved and why.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from stlayout import (GeneratorConfig, GridDrawing, RejectionWitness,
                      apply_splits, check_upward_planar, compute_faces,
                      draw_polyline,
                      draw_straightline, drawing_to_text,
                      find_bitonic_ordering, generate_random_st_graph,
                      graph_to_json, graph_to_text, minimum_split_plan,
                      transitive_split_plan)
from stlayout.ordering import ordering_to_text, witness_to_text
from stlayout.splitting import plan_to_text
from stlayout.validate import _find_proper_intersection
from conftest import all_fixture_graphs, corpus, fan, zig

GOLDEN = Path(__file__).with_name("golden.json")
FAMILIES = ("graph", "ordering", "plan", "split", "faces", "straightline",
            "polyline", "validation", "sweep")


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
    return ordering_to_text(g, ord) + repr(ord.augment_faces)


def faces_text(g):
    fi = compute_faces(g)
    return repr((fi.face_source, fi.face_sink, fi.corner_dir,
                 fi.outer_face, fi.face_of_dart))


def sweep_piece_sets(count=20_000, side=5):
    """Seeded sets of 2-8 pieces on a small grid, so that shared
    endpoints, touches, overlaps and crossings are all common."""
    rng = random.Random(9)
    for _ in range(count):
        pieces = []
        for _ in range(rng.randint(2, 8)):
            a = (rng.randrange(side), rng.randrange(side))
            kind = rng.random()
            if kind < 0.2:
                b = a
            elif kind < 0.35:
                b = (rng.randrange(side), a[1])
            else:
                b = (rng.randrange(side), rng.randrange(side))
            pieces.append((a, b))
        yield pieces


def perturbed(g, d, rng):
    """``d`` with 1-3 vertices moved by a few units; every path still
    starts and ends at its edge's vertices."""
    coords = list(d.coords)
    for v in rng.sample(range(g.n), min(g.n, rng.randint(1, 3))):
        x, y = coords[v]
        coords[v] = (x + rng.randint(-3, 3), y + rng.randint(-3, 3))
    paths = tuple((coords[g.tail[e]], *path[1:-1], coords[g.head[e]])
                  for e, path in enumerate(d.edge_paths))
    return GridDrawing(coords=tuple(coords), edge_paths=paths)


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
            put("plan", plan_to_text(plan) + repr(plan.apex))
            res = apply_splits(g, plan)
            put("split", graph_to_text(res.graph)
                + repr(sorted(res.dummy_of.items())))
            put("faces", faces_text(res.graph))
        # the straight-line drawing of g, or of its minimum split graph
        if isinstance(ord, RejectionWitness):
            h_graph = apply_splits(g, minimum_split_plan(g)).graph
            ord = find_bitonic_ordering(h_graph)
            put("ordering", ordering_text(h_graph, ord))
        else:
            h_graph = g
        straight = draw_straightline(h_graph, ord)
        put("straightline", drawing_to_text(h_graph, straight))
        put("validation", check_upward_planar(h_graph, straight).to_json())
        poly = draw_polyline(g)
        put("polyline", drawing_to_text(g, poly))
        put("validation", check_upward_planar(g, poly).to_json())
        if g.n <= 100:
            for _ in range(3):
                put("sweep", check_upward_planar(
                    g, perturbed(g, poly, rng)).to_json())
    for pieces in sweep_piece_sets():
        put("sweep", repr(_find_proper_intersection(pieces)))
    return {name: h[name].hexdigest() for name in FAMILIES}


def test_outputs_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert [f for f in FAMILIES if got[f] != want[f]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2) + "\n")
