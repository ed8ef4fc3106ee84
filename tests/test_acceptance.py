"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The lines are written straight to the terminal (bypassing capture) so the
verdicts are visible in any pytest run.
"""

from __future__ import annotations

from statistics import median

from stlayout import (BitonicOrdering, GeneratorConfig, check_bounds,
                      check_upward_planar, apply_splits, compute_faces,
                      draw_polyline, draw_straightline, emit_svg,
                      find_bitonic_ordering, generate_random_st_graph,
                      graph_to_text, minimum_split_plan)
from stlayout.generate import add_random_chords
from stlayout.graph import _topological_order
from stlayout.io import drawing_to_text
from stlayout.ordering import ordering_to_text
from stlayout.splitting import plan_to_text
from conftest import (LINEAR_GATE, all_fixture_graphs, doubling_ratios, fan,
                      timed)
from oracles import (exists_bitonic_bruteforce, face_sink,
                     minimum_splits_bruteforce, succ)


def report(capsys, num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {name}: {verdict}{tail}", flush=True)


def small_corpus(sizes, seeds):
    out = []
    for n in sizes:
        for seed in seeds:
            g = generate_random_st_graph(GeneratorConfig(n_target=n,
                                                         seed=seed))
            out.append(g)
            out.append(add_random_chords(g, n, seed + 1))
    return out


def descendants(g):
    """Reachability bitmasks per vertex (independent of face machinery)."""
    rows = succ(g)
    desc = [0] * g.n
    for u in reversed(_topological_order(g.out_start, g.head)):
        mask = 1 << u
        for v in rows[u]:
            mask |= desc[v]
        desc[u] = mask
    return desc


def test_criterion_1_recognition_oracle_equivalence(capsys):
    graphs = small_corpus(sizes=(4, 5, 6, 7, 8), seeds=range(100))
    graphs += [g for g in all_fixture_graphs() if g.n <= 8]
    assert len(graphs) >= 1000
    bad = 0
    for g in graphs:
        fast = isinstance(find_bitonic_ordering(g), BitonicOrdering)
        slow = exists_bitonic_bruteforce(g)
        if fast != slow:
            bad += 1
    ok = bad == 0
    report(capsys, 1, "recognition oracle equivalence", ok,
           f"{len(graphs)} graphs, {bad} disagreements")
    assert ok


def test_criterion_2_face_sink_correctness(capsys):
    graphs = small_corpus(sizes=(10, 25, 60, 120, 200), seeds=range(20))
    assert len(graphs) >= 200
    bad = 0
    for g in graphs:
        fi = compute_faces(g)
        desc = descendants(g)
        for u, row in enumerate(succ(g)):
            ids = range(g.out_start[u], g.out_start[u + 1])
            for i in range(1, len(row)):
                a, b = row[i - 1], row[i]
                w = face_sink(fi, g, u, i)
                fwd = bool(desc[a] >> b & 1)
                back = bool(desc[b] >> a & 1)
                if (w == b) != fwd or (w == a) != back:
                    bad += 1
                if g.corner_dir[ids[i - 1]] != fwd - back:
                    bad += 1
            if row and g.corner_dir[ids[-1]] != 0:
                bad += 1
    ok = bad == 0
    report(capsys, 2, "face-sink path decisions", ok,
           f"{len(graphs)} graphs, {bad} wrong decisions")
    assert ok


def test_criterion_3_split_optimality(capsys):
    graphs = [g for g in small_corpus(sizes=(4, 5, 6, 7), seeds=range(60))
              if g.m <= 12]
    graphs += [g for g in all_fixture_graphs() if g.m <= 12]
    assert len(graphs) >= 300
    bad = nonzero = 0
    for g in graphs:
        k = len(minimum_split_plan(g).split_edges)
        if k:
            nonzero += 1
        if minimum_splits_bruteforce(g, k) != k:
            bad += 1
    ok = bad == 0
    report(capsys, 3, "split minimality vs exhaustive search", ok,
           f"{len(graphs)} graphs ({nonzero} needing splits), "
           f"{bad} non-optimal")
    assert ok


def test_criterion_4_bound_tightness(capsys):
    bad = []
    for k in range(4, 13):
        g = fan(k)
        splits = len(minimum_split_plan(g).split_edges)
        d = draw_polyline(g)
        bends = sum(len(p) - 2 for p in d.edge_paths)
        if splits != k - 3 or bends != k - 3:
            bad.append((k, splits, bends))
    others = small_corpus(sizes=(10, 30, 80), seeds=range(10))
    loose = 0
    for g in others:
        splits = len(minimum_split_plan(g).split_edges)
        d = draw_polyline(g)
        per_edge = max((len(p) - 2 for p in d.edge_paths), default=0)
        bends = sum(len(p) - 2 for p in d.edge_paths)
        if (splits > max(g.n - 3, 0) or bends > max(g.n - 3, 0)
                or per_edge > 1):
            loose += 1
    ok = not bad and loose == 0
    report(capsys, 4, "fan family tight at |V|-3, all others within bounds", ok,
           f"fan k=4..12; {len(others)} other graphs, "
           f"{len(bad) + loose} violations")
    assert ok


def test_criterion_5_drawing_validity_and_area(capsys):
    graphs = small_corpus(sizes=(10, 100, 500), seeds=range(6))
    graphs += [generate_random_st_graph(GeneratorConfig(n_target=n, seed=1))
               for n in (2000, 10_000)]
    graphs += all_fixture_graphs()
    bad = 0
    for g in graphs:
        d = draw_polyline(g)
        rep = check_upward_planar(g, d)
        if not rep.ok or not check_bounds(d, g.n, "polyline"):
            bad += 1
            continue
        if not d.splits:
            res = find_bitonic_ordering(g)
            sd = draw_straightline(g, res)
            if (not check_upward_planar(g, sd).ok
                    or not check_bounds(sd, g.n, "straightline")):
                bad += 1
    ok = bad == 0
    report(capsys, 5, "drawings upward planar within area bounds (n up to 10^4)",
           ok, f"{len(graphs)} graphs, {bad} invalid")
    assert ok


def test_criterion_6_split_locality(capsys):
    graphs = small_corpus(sizes=(5, 8, 12, 20), seeds=range(25))
    bad = 0
    for g in graphs:
        h = apply_splits(g, minimum_split_plan(g))
        before = descendants(g)
        after = descendants(h)
        keep = (1 << g.n) - 1
        for v in range(g.n):
            if before[v] != after[v] & keep:
                bad += 1
                break
    ok = bad == 0
    report(capsys, 6, "reachability unchanged by splits", ok,
           f"{len(graphs)} graphs, {bad} changed")
    assert ok


def test_criterion_7_linear_time_behavior(capsys):
    sizes = [10_000, 20_000, 40_000, 80_000]
    graphs = [generate_random_st_graph(GeneratorConfig(n_target=n, seed=1))
              for n in sizes]
    ratios = doubling_ratios(draw_polyline, graphs)
    del graphs
    medians = [median(r) for r in ratios]
    g = generate_random_st_graph(GeneratorConfig(n_target=100_000, seed=1))
    t_big = timed(draw_polyline, g)
    ok = all(m <= LINEAR_GATE for m in medians) and t_big < 5.0
    pairs = [f"{a // 1000}k->{b // 1000}k {m:.2f} [{min(r):.2f}-{max(r):.2f}]"
             for a, b, m, r in zip(sizes, sizes[1:], medians, ratios)]
    text = ("median [min-max] over rounds: " + ", ".join(pairs)
            + f"; 10^5 took {t_big:.2f}s")
    report(capsys, 7, "median doubling ratio <= 2.5 and n=10^5 under 5s", ok,
           text)
    assert ok, text


def test_criterion_7_gate_catches_quadratic_growth():
    def quadratic(n):
        pairs = 0
        for i in range(n):
            for j in range(i):
                pairs += i ^ j
        return pairs

    medians = [median(r) for r in doubling_ratios(quadratic,
                                                  [100, 200, 400, 800])]
    # a quadratic doubles to about 4x, so the gate must reject it
    assert any(m > LINEAR_GATE for m in medians), medians


def test_criterion_8_determinism(capsys):
    g1 = generate_random_st_graph(GeneratorConfig(n_target=40, seed=11))
    g2 = generate_random_st_graph(GeneratorConfig(n_target=40, seed=11))
    g1 = add_random_chords(g1, 40, 12)
    g2 = add_random_chords(g2, 40, 12)
    same = graph_to_text(g1) == graph_to_text(g2)
    res1, res2 = find_bitonic_ordering(g1), find_bitonic_ordering(g2)
    if isinstance(res1, BitonicOrdering):
        same &= ordering_to_text(res1) == ordering_to_text(res2)
    same &= (plan_to_text(g1, minimum_split_plan(g1))
             == plan_to_text(g2, minimum_split_plan(g2)))
    d1, d2 = draw_polyline(g1), draw_polyline(g2)
    same &= drawing_to_text(g1, d1) == drawing_to_text(g2, d2)
    same &= emit_svg(d1) == emit_svg(d2)
    report(capsys, 8, "byte-identical outputs for identical seeds", same)
    assert same
