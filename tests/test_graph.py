"""Construction, validation errors, faces, and face-sink semantics."""

from __future__ import annotations

import pytest

from stlayout import (GraphFormatError, MultipleSourcesOrSinks, NotAcyclic,
                      NotPlanarEmbedding, ParallelEdge, apply_splits,
                      build_graph, compute_faces, minimum_split_plan,
                      transitive_split_plan)
from stlayout.graph import _topological_order
from conftest import all_fixture_graphs, corpus, fan
from oracles import (edges, face_sink, in_order, inner_faces, pred_ltr,
                     reachable)


def test_triangle_structure(triangle):
    assert triangle.n == 3 and triangle.m == 3
    assert edges(triangle) == [(0, 1), (0, 2), (1, 2)]
    assert pred_ltr(triangle)[2] == [1, 0]


def test_single_edge(single_edge):
    fi = compute_faces(single_edge)
    assert len(fi.faces) == 1
    assert fi.outer_face == 0
    assert inner_faces(fi) == []


def test_f1_faces(f1):
    fi = compute_faces(f1)
    # n - m + f = 2  ->  f = 2 - 5 + 7 = 4 faces, 3 inner
    assert len(fi.faces) == 4
    assert len(inner_faces(fi)) == 3
    # corner (s, v1, v2) -> face with sink v1; corner (s, v2, v3) -> sink v3
    assert face_sink(fi, f1, 0, 1) == 1
    assert face_sink(fi, f1, 0, 2) == 3


def test_face_sink_decides_paths(f1):
    # sink == right successor iff left ~> right; == left iff right ~> left
    assert reachable(f1, 2, 1) and not reachable(f1, 1, 2)
    fi = compute_faces(f1)
    assert face_sink(fi, f1, 2, 1) in (1, 3, 4)


def test_face_sink_range_check(triangle):
    fi = compute_faces(triangle)
    with pytest.raises(IndexError):
        face_sink(fi, triangle, 0, 2)
    with pytest.raises(IndexError):
        face_sink(fi, triangle, 0, 0)


def test_inner_faces_have_unique_source_and_sink(sixteen):
    fi = compute_faces(sixteen)
    for f in inner_faces(fi):
        assert fi.face_source[f] >= 0
        assert fi.face_sink[f] >= 0


def test_rejects_cycle():
    with pytest.raises(NotAcyclic):
        build_graph(4, 0, 3, [[1], [2, 3], [1], []])


def test_rejects_parallel_and_loops():
    with pytest.raises(ParallelEdge):
        build_graph(3, 0, 2, [[1, 1], [2], []])
    with pytest.raises(ParallelEdge):
        build_graph(3, 0, 2, [[1, 0], [2], []])


def test_build_graph_names_the_first_fault():
    # successors are checked row by row, each for range, self-loop and
    # repeat in turn, all before sources and sinks
    cases = [
        ((3, 0, 2, [[1, 1], [9], []]), ParallelEdge, "parallel edge (0, 1)"),
        ((3, 0, 2, [[9], [1], []]), GraphFormatError,
         "successor 9 of 0 out of range"),
        ((3, 0, 2, [[1, 1, 9], [9], []]), ParallelEdge,
         "parallel edge (0, 1)"),
        ((3, 0, 2, [[9, 1, 1], [9], []]), GraphFormatError,
         "successor 9 of 0 out of range"),
        ((3, 0, 2, [[0, 1, 1], [9], []]), ParallelEdge, "self-loop at 0"),
        ((4, 0, 3, [[1, 2], [], [3, 3], []]), ParallelEdge,
         "parallel edge (2, 3)"),
        ((4, 0, 3, [[3], [3], [3, 3], []]), ParallelEdge,
         "parallel edge (2, 3)"),
    ]
    for args, error, message in cases:
        with pytest.raises(error) as info:
            build_graph(*args)
        assert type(info.value) is error and str(info.value) == message


def test_rejects_extra_source_or_sink():
    with pytest.raises(MultipleSourcesOrSinks):
        build_graph(4, 0, 3, [[3], [3], [3], []])  # 1 and 2 are sources
    with pytest.raises(MultipleSourcesOrSinks):
        build_graph(4, 0, 3, [[1, 2], [], [3], []])  # 1 is a second sink


def test_rejects_bad_header_values():
    with pytest.raises(GraphFormatError):
        build_graph(1, 0, 0, [[]])
    with pytest.raises(GraphFormatError):
        build_graph(3, 0, 0, [[1], [2], []])


def test_rejects_crossing_chords():
    # 1 -> {3,4} and 2 -> {4,3} cannot be embedded without a crossing:
    # the incoming edges of 3 (and 4) can never be consecutive
    with pytest.raises(NotPlanarEmbedding):
        build_graph(6, 0, 5, [[1, 2], [3, 4], [4, 3], [5], [5], []])


def test_cycle_takes_precedence_over_a_split_in_block():
    # the crossing chords of 1 and 2 plus the cycle 6 -> 7 -> 6: the sweep
    # meets the split in-block of 3 first, yet the cycle is reported, as
    # the first violated invariant in build_graph's order
    succ = [[1, 2, 6], [3, 4], [4, 3], [5], [5], [], [7, 5], [6]]
    with pytest.raises(NotAcyclic):
        build_graph(8, 0, 5, succ)
    succ[7], succ[6] = [5], [7]  # 6 -> 7 -> 5 has no cycle
    with pytest.raises(NotPlanarEmbedding):
        build_graph(8, 0, 5, succ)


def test_mirrored_rotations_still_embed():
    # the incoming rotations are derived, so any consistent successor
    # order is accepted; [2,1] is the mirror image of the diamond
    g = build_graph(4, 0, 3, [[2, 1], [3], [3], []])
    assert len(inner_faces(compute_faces(g))) == 1


def test_topo_order_places_the_vertex_readied_last_first(sixteen):
    order = _topological_order(sixteen.out_start, sixteen.head)
    pos = {v: i for i, v in enumerate(order)}
    for u, v in edges(sixteen):
        assert pos[u] < pos[v]
    assert order[0] == sixteen.s and order[-1] == sixteen.t
    # the diamond 0 -> {1, 2} -> 3: 0 readies 1 and then 2, so 2 comes
    # next, where the smallest ready id would be 1
    diamond = build_graph(4, 0, 3, [[1, 2], [3], [3], []])
    assert _topological_order(diamond.out_start,
                              diamond.head) == [0, 2, 1, 3]
    # extra successors come after the successor list: 0 -> 1, then 2
    # through extra[0]
    assert _topological_order((0, 1, 2, 3, 3), (1, 3, 3),
                              {0: [2]}) == [0, 2, 1, 3]


def test_flat_arrays_of_f1(f1):
    assert f1.out_start == (0, 3, 4, 6, 7, 7)
    assert f1.head == (1, 2, 3, 4, 1, 3, 4)
    # in-edges of 3 from left to right: (2, 3), then (0, 3)
    assert in_order(f1) == [[], [0, 4], [1], [5, 2], [3, 6]]
    assert pred_ltr(f1)[3] == [2, 0]
    assert f1.first_in == (-1, 0, 1, 5, 3)
    assert f1.last_in == (-1, 4, 1, 2, 6)
    # 2 ~> 1 and 2 ~> 3 out of s's corners; no corner after a last out-edge
    assert f1.corner_dir == (-1, 1, 0, 0, 0, 0, 0)
    split = apply_splits(f1, minimum_split_plan(f1))
    assert split.corner_dir == (-1, 0, 0, 0, 0, 0, 0, 0)


def test_first_and_last_in_edges_end_the_in_order():
    graphs = all_fixture_graphs()
    graphs += corpus(sizes=(5, 10, 25, 50, 100), seeds=range(4))
    graphs += [fan(k) for k in (50, 2000)]
    split = 0
    for g in graphs:
        for h in (g, apply_splits(g, minimum_split_plan(g)),
                  apply_splits(g, transitive_split_plan(g))):
            split += h is not g
            rows = in_order(h)
            assert h.first_in == tuple(row[0] if row else -1 for row in rows)
            assert h.last_in == tuple(row[-1] if row else -1 for row in rows)
    assert split > 50


def test_generated_graphs_validate():
    for g in corpus(sizes=(5, 9, 17, 33), seeds=range(8)):
        fi = compute_faces(g)
        assert g.n - g.m + len(fi.faces) == 2
        for f in inner_faces(fi):
            assert fi.face_sink[f] >= 0 and fi.face_source[f] >= 0
