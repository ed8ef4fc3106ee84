"""Recognition, ordering, witnesses, and the brute-force oracle."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stlayout import (BitonicOrdering, GeneratorConfig, OrderingInvalid,
                      RejectionWitness, StGraphError, apply_splits,
                      build_graph, compute_faces, draw_straightline,
                      find_bitonic_ordering, generate_random_st_graph,
                      minimum_split_plan, verify_bitonic_ordering)
from stlayout.generate import add_random_chords
from stlayout.ordering import _row_scan, ordering_to_text, witness_to_text
from conftest import corpus, fan, zig
from oracles import (TooLarge, augmented_graph, corner_pos_at,
                     counter_split_plan, exists_bitonic_bruteforce,
                     first_conflict, first_descent_gap_edges, inner_faces,
                     is_bitonic, reachable, succ)
from test_faces import random_dag


def test_is_bitonic_basics():
    assert is_bitonic([])
    assert is_bitonic([5])
    assert is_bitonic([1, 2, 3])
    assert is_bitonic([3, 2, 1])
    assert is_bitonic([1, 3, 2])
    assert not is_bitonic([2, 1, 3])
    assert not is_bitonic([1, 4, 2, 5, 3])
    # equal neighbours: a rise must be strict, a fall need not be
    assert is_bitonic([2, 2])
    assert is_bitonic([1, 2, 2])
    assert not is_bitonic([1, 1, 2])
    assert not is_bitonic([3, 1, 3])


def test_triangle_accepts(triangle):
    res = find_bitonic_ordering(triangle)
    assert isinstance(res, BitonicOrdering)
    assert res.pi == (1, 2, 3)
    assert res.augment_edges == ()
    assert verify_bitonic_ordering(triangle, res)


def test_f1_rejects_with_witness(f1):
    res = find_bitonic_ordering(f1)
    assert res == RejectionWitness(u=0, i=1, j=2)
    assert witness_to_text(res) == "reject 0 1 2\n"


def test_witness_names_real_paths(f1, seven):
    for g in (f1, seven):
        w = find_bitonic_ordering(g)
        assert isinstance(w, RejectionWitness)
        row = succ(g)[w.u]
        assert reachable(g, row[w.i], row[w.i - 1])
        assert reachable(g, row[w.j - 1], row[w.j])


def test_split_f1_ordering(split_f1):
    res = find_bitonic_ordering(split_f1)
    assert isinstance(res, BitonicOrdering)
    # s=1, d=2, v2=3, v1=4, v3=5, t=6
    assert res.pi == (1, 4, 3, 5, 6, 2)
    assert verify_bitonic_ordering(split_f1, res)
    assert res.order == [0, 5, 2, 1, 3, 4]


def test_ranks_follow_the_ready_stack(seven):
    # seven split at (0, 1); placing 4 readies 2 and then 3, so 3 is
    # ranked before 2, where the smallest ready id would rank 2 first
    h = apply_splits(seven, minimum_split_plan(seven))
    res = find_bitonic_ordering(h)
    assert res.augment_edges == ((7, 5),)
    assert res.pi == (1, 8, 6, 5, 4, 3, 7, 2)
    assert verify_bitonic_ordering(h, res)


def test_oracle_agreement_fixtures(triangle, f1, split_f1, seven,
                                   single_edge):
    for g in (triangle, f1, split_f1, seven, single_edge):
        got = isinstance(find_bitonic_ordering(g), BitonicOrdering)
        assert got == exists_bitonic_bruteforce(g)


def scan_inputs():
    """The corpora, fans, zigs, the small-chorded batches at seeds 1 and 2
    and the small random embeddings that build."""
    graphs = corpus(sizes=(6, 12, 25, 50), seeds=range(8))
    graphs += corpus(sizes=(6, 12, 25, 50), seeds=range(8), chords=False)
    graphs += [fan(k) for k in (4, 5, 50, 2000)]
    graphs += [zig(k) for k in (3, 5, 9, 101, 1001)]
    for seed in range(40, 120):
        g = generate_random_st_graph(GeneratorConfig(n_target=100,
                                                     seed=seed))
        graphs.append(add_random_chords(g, 100, seed + 1))
    rng = random.Random(7)
    for _ in range(1500):
        try:
            graphs.append(build_graph(*random_dag(rng)))
        except StGraphError:
            pass
    return graphs


def test_row_scan_matches_the_separate_walks():
    # one scan per row gives the first conflict, the minimum plan, and the
    # gap edges that recognizing the split graph would file, in order
    rejected = 0
    for g in scan_inputs():
        witness, apex, split, extra, aug = _row_scan(g)
        assert witness == first_conflict(g)
        plan = counter_split_plan(g)
        assert (tuple(apex), tuple(split)) == (plan.apex, plan.split_edges)
        assert minimum_split_plan(g) == plan
        h = apply_splits(g, plan)
        assert (tuple(aug) == first_descent_gap_edges(h)
                == find_bitonic_ordering(h).augment_edges)
        assert sorted(aug) == sorted((a, b) for a, bs in extra.items()
                                     for b in bs)
        rejected += witness is not None
    assert rejected > 100


class ReadLog(tuple):
    """A tuple that records each index and slice read from it."""

    def __getitem__(self, i):
        self.reads.append(i)
        return tuple.__getitem__(self, i)


def logged(seq):
    out = ReadLog(seq)
    out.reads = []
    return out


def test_rejection_scans_no_row_after_the_witness_row():
    # find_bitonic_ordering returns at the first conflict: on a rejected
    # graph it reads no row offset past the witness row's end and no
    # corner of a later row, and it names the full scan's witness
    rejected = 0
    for g in scan_inputs():
        witness = _row_scan(g)[0]
        if witness is None:
            continue
        starts, dirs = logged(g.out_start), logged(g.corner_dir)
        h = replace(g, out_start=starts, corner_dir=dirs)
        assert find_bitonic_ordering(h) == witness
        end = g.out_start[witness.u + 1]
        assert max(starts.reads) == witness.u + 1
        assert all((i.stop if isinstance(i, slice) else i + 1) <= end
                   for i in dirs.reads)
        rejected += 1
    assert rejected > 100


def test_oracle_guard():
    g = build_graph(2, 0, 1, [[1], []])
    with pytest.raises(TooLarge):
        exists_bitonic_bruteforce(g, max_n=1)


def test_augmented_graph_stays_planar_st(split_f1):
    res = find_bitonic_ordering(split_f1)
    aug = augmented_graph(split_f1, res)
    assert aug.m == split_f1.m + len(res.augment_edges)
    # topological ranks of the augmented graph reproduce the ordering
    for a, b in res.augment_edges:
        assert res.pi[a] < res.pi[b]


def test_augmented_graph_on_corpus():
    for g in corpus(sizes=(6, 10, 14), seeds=range(10)):
        res = find_bitonic_ordering(g)
        if isinstance(res, BitonicOrdering):
            assert verify_bitonic_ordering(g, res)
            aug = augmented_graph(g, res)
            assert aug.m == g.m + len(res.augment_edges)


def test_corner_pos_at_places_chords_into_the_face():
    # -1 exactly at the face's sink; elsewhere a chord to the sink, drawn
    # into the face at the returned position, keeps the graph embedded
    for g in corpus(sizes=(6, 12, 25), seeds=range(6)):
        fi, rows = compute_faces(g), succ(g)
        for f in inner_faces(fi):
            z = fi.face_sink[f]
            for x in {g.tail[d >> 1] for d in fi.faces[f]}:
                pos = corner_pos_at(fi, g, f, x)
                assert (pos < 0) == (x == z)
                if pos >= 0 and z not in rows[x]:
                    chorded = succ(g)
                    chorded[x].insert(pos, z)
                    build_graph(g.n, g.s, g.t, chorded)
            assert corner_pos_at(fi, g, f, z) == -1


def test_verify_rejects_wrong_orderings(triangle):
    # the source ranked second; then orders that are no permutation of the
    # vertices: a repeat, one out of range either way, too short, too long
    for order in ([1, 0, 2], [0, 0, 2], [0, 1, 3], [-1, 1, 2], [0, 1],
                  [0, 1, 2, 2]):
        bad = BitonicOrdering(order=order, augment_edges=())
        assert verify_bitonic_ordering(triangle, bad) is False


def random_topological_order(g, rng):
    """Kahn's sort that takes a random ready vertex at every step."""
    rows = succ(g)
    deg = [0] * g.n
    for v in g.head:
        deg[v] += 1
    ready = [v for v in range(g.n) if deg[v] == 0]
    order = []
    while ready:
        u = ready.pop(rng.randrange(len(ready)))
        order.append(u)
        for v in rows[u]:
            deg[v] -= 1
            if deg[v] == 0:
                ready.append(v)
    return order


def bitonic_oracle(g, order):
    """Every edge rises in rank and every successor list is bitonic."""
    pi = [0] * g.n
    for rank, v in enumerate(order, 1):
        pi[v] = rank
    rows = succ(g)
    return (all(pi[u] < pi[v] for u in range(g.n) for v in rows[u])
            and all(is_bitonic([pi[v] for v in row]) for row in rows))


def test_verify_agrees_with_the_oracle_on_random_orders():
    graphs = corpus(sizes=(6, 10, 16, 24, 32, 40), seeds=range(8))
    graphs += [apply_splits(g, minimum_split_plan(g)) for g in graphs]
    graphs.append(fan(8))
    rng = random.Random(23)
    verdicts = []
    for g in graphs:
        for _ in range(14):
            order = random_topological_order(g, rng)
            got = verify_bitonic_ordering(
                g, BitonicOrdering(order=order, augment_edges=()))
            assert got == bitonic_oracle(g, order), (g.n, order)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_f1_orders_fail_the_check(f1):
    # f1 admits no bitonic ordering: v2, the middle of s's row, has paths
    # to both its neighbours there, so it ranks below both
    for order in ([0, 2, 1, 3, 4], [0, 2, 3, 1, 4]):
        bad = BitonicOrdering(order=order, augment_edges=())
        assert verify_bitonic_ordering(f1, bad) is False
        with pytest.raises(OrderingInvalid):
            draw_straightline(f1, bad)


# the fixtures build fresh graphs that nothing mutates, so one set of them
# can serve every example
@settings(derandomize=True, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_rejects_every_non_permutation(triangle, single_edge, f1,
                                              split_f1, data):
    g = data.draw(st.sampled_from((triangle, single_edge, f1, split_f1)))
    # unique lists are the near-permutations that only the bounds tell apart
    order = data.draw(st.lists(st.integers(-1, g.n), min_size=g.n - 1,
                               max_size=g.n + 1,
                               unique=data.draw(st.booleans())))
    assume(sorted(order) != list(range(g.n)))
    bad = BitonicOrdering(order=order, augment_edges=())
    assert verify_bitonic_ordering(g, bad) is False


def test_ordering_text_format(split_f1):
    res = find_bitonic_ordering(split_f1)
    text = ordering_to_text(res)
    lines = text.splitlines()
    assert lines[0] == "1 0"
    assert lines[5] == "6 4"
    assert all(l.startswith("# aug ") for l in lines[6:])
