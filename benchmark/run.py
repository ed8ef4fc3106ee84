#!/usr/bin/env python3
"""stlayout benchmark: graph text -> drawing text -> validation verdict.

Run from the repository root:

  python3 benchmark/run.py --workload seed-bulk --seed 1 --seconds 20 --trace 0

Each run builds the workload's graphs from the seed (set-up), then repeats
the user's pipeline over the whole batch -- ``draw`` (parse, split, order,
contour, fold, emit) and ``validate`` (parse the drawing, check upward
planarity and the grid bounds) -- for ``--seconds`` seconds, checks every
output, and prints one JSON result as the last line of standard output.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced pass.  The exit code is 0 only when every
output passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import stlayout  # noqa: F401
except ModuleNotFoundError:
    raise SystemExit(f"error: the stlayout sources are missing "
                     f"under {ROOT / 'src'}") from None

import spans  # noqa: E402
import workloads  # noqa: E402
from clock import ProbeClock  # noqa: E402
from stlayout import (RejectionWitness, check_bounds,  # noqa: E402
                      check_upward_planar, compute_faces, draw_polyline,
                      drawing_from_text, drawing_to_text,
                      find_bitonic_ordering, graph_from_text, graph_to_text,
                      minimum_split_plan, transitive_split_plan)

SETUP_REPEATS = 3   # set-ups per run, at least; setup_s is their median
SETUP_SECONDS = 3.0  # ... and repeated until they took this long
MIN_ITERS = 3       # pipeline passes per untraced run, at least
MIN_TRACED = 2      # traced (and untraced) passes per traced run, at least


class _NoTracer:
    """Stand-in for :class:`spans.Tracer` that records nothing."""

    input_graph = None

    def span(self, name):
        return nullcontext()


@dataclass
class Case:
    """One graph of the batch and what its outputs must satisfy."""

    text: str
    n: int = 0
    m: int = 0
    faces: int = 0
    rejected: bool = False
    plan_splits: int = 0
    transitive_splits: int = 0
    exact_splits: int | None = None
    digest: str | None = None     # sha256 of the first drawing text
    bends: int = 0
    width_ratio: float = 0.0
    height_ratio: float = 0.0
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    """One pass of the pipeline over the batch."""

    attempted: int = 0
    failed: int = 0
    # perf_counter stamps per graph: start, end of draw, end of validate
    stamps: list[tuple[float, float, float]] = field(default_factory=list)

    def seconds(self, clock) -> tuple[float, float, float]:
        """Batch totals (pipeline, draw, validate) in ``clock`` seconds."""
        draw = sum(clock(t0, t1) for t0, t1, _ in self.stamps)
        validate = sum(clock(t1, t2) for _, t1, t2 in self.stamps)
        return draw + validate, draw, validate


def make_texts(workload, seed: int, size: int) -> list[str]:
    """Set-up: generate the batch and serialise it to graph text."""
    return [graph_to_text(g) for g in workload.make(seed, size)]


def gate(workload, texts: list[str]) -> list[Case]:
    """Untimed reference facts per graph, checked once per run."""
    cases = []
    for text in texts:
        case = Case(text=text)
        cases.append(case)
        try:
            g = graph_from_text(text)
            case.n, case.m = g.n, g.m
            case.faces = len(compute_faces(g).faces)
            case.rejected = isinstance(find_bitonic_ordering(g),
                                       RejectionWitness)
            case.plan_splits = len(minimum_split_plan(g).split_edges)
            case.transitive_splits = len(
                transitive_split_plan(g).split_edges)
        except Exception:
            case.problems.append("gate raised:\n" + traceback.format_exc())
            continue
        if case.rejected != (case.plan_splits > 0):
            case.problems.append(
                f"find_bitonic_ordering rejected={case.rejected} but the "
                f"minimum split plan has {case.plan_splits} edges")
        if workload.exact_splits is not None:
            case.exact_splits = workload.exact_splits(g.n)
    return cases


def _check(case: Case, d, dtext: str, report, bounds_ok: bool) -> list[str]:
    """Problems with one drawing of ``case``; empty when it is correct."""
    problems = list(case.problems)
    if not report.ok:
        problems.append("validation failed: "
                        + "; ".join(report.violations[:3]))
    if not bounds_ok:
        problems.append("drawing exceeds the poly-line grid bounds")
    if report.bends_max_per_edge > 1:
        problems.append(f"{report.bends_max_per_edge} bends on one edge")
    splits = len(d.splits)
    if splits > max(case.n - 3, 0):
        problems.append(f"{splits} splits exceed n-3 = {case.n - 3}")
    if splits != case.plan_splits:
        problems.append(f"{splits} splits, minimum plan has "
                        f"{case.plan_splits}")
    if case.exact_splits is not None and splits != case.exact_splits:
        problems.append(f"{splits} splits, the family needs exactly "
                        f"{case.exact_splits}")
    digest = hashlib.sha256(dtext.encode()).hexdigest()
    if case.digest is None:
        case.digest = digest
        case.bends = len(d.bend_points)
        case.width_ratio = d.width / max(4 * case.n - 8, 2 * case.n - 2, 1)
        case.height_ratio = d.height / max(2 * case.n - 4, case.n - 1, 1)
    elif digest != case.digest:
        problems.append("drawing differs from the previous pass")
    return problems


def run_pass(cases: list[Case], tracer=None) -> Pass:
    """Draw and validate every graph once; time and check each output."""
    tracer = tracer or _NoTracer()
    gc.collect()
    res = Pass(attempted=len(cases))
    for i, case in enumerate(cases):
        try:
            with tracer.span("draw"):
                t0 = time.perf_counter()
                g = graph_from_text(case.text)
                tracer.input_graph = g
                d = draw_polyline(g)
                dtext = drawing_to_text(g, d)
                t1 = time.perf_counter()
            with tracer.span("validate"):
                d2 = drawing_from_text(dtext, g)
                report = check_upward_planar(g, d2)
                bounds_ok = check_bounds(d2, g.n, "polyline")
                t2 = time.perf_counter()
        except Exception:
            problems = ["pipeline raised:\n" + traceback.format_exc()]
        else:
            res.stamps.append((t0, t1, t2))
            problems = _check(case, d, dtext, report, bounds_ok)
        if problems:
            res.failed += 1
            print(f"FAILED graph {i}: "
                  + " | ".join(problems), file=sys.stderr)
    return res


def code_hash() -> str:
    """Digest of the library and benchmark sources of this checkout."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "stlayout").rglob("*.py"))
    files += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record_digest(workload: str, seed: int, size: int,
                  digest: str) -> bool:
    """Compare the batch's drawing digest with earlier runs of this code.

    Runs of the same sources must agree (False otherwise).  A different
    digest from other sources is only reported, since a change may
    legitimately alter drawings.
    """
    path = OUT_DIR / "digests.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    key = f"{workload}/seed={seed}/size={size}"
    mine = book.setdefault(code_hash(), {})
    agree = mine.setdefault(key, digest) == digest
    if not agree:
        print(f"digest mismatch for {key}: {digest} vs {mine[key]} "
              f"from an earlier run of the same code", file=sys.stderr)
    for other, entries in book.items():
        if entries is not mine and entries.get(key, digest) != digest:
            print(f"note: {key} drawings differ from sources {other}",
                  file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return agree


def batch_digest(cases: list[Case]) -> str:
    return hashlib.sha256("".join(c.digest or "-" for c in cases)
                          .encode()).hexdigest()


def _loop(seconds: float, min_passes: int, body) -> None:
    start = time.perf_counter()
    done = 0
    while done < min_passes or time.perf_counter() - start < seconds:
        body()
        done += 1


def _wall(start: float, end: float) -> float:
    return end - start


def measure(workload, seed: int, seconds: float, size: int):
    """Untraced run: end-to-end metrics, attempted and failed counts."""
    setup_stamps, texts = [], []

    def setup():
        gc.collect()
        t0 = time.perf_counter()
        again = make_texts(workload, seed, size)
        setup_stamps.append((t0, time.perf_counter()))
        if texts and again != texts:
            raise RuntimeError("set-up is not deterministic")
        texts[:] = again

    passes: list[Pass] = []
    with ProbeClock() as clock:
        _loop(SETUP_SECONDS, SETUP_REPEATS, setup)
        cases = gate(workload, texts)
        _loop(seconds, MIN_ITERS, lambda: passes.append(run_pass(cases)))
    ref = [p.seconds(clock.seconds) for p in passes]
    wall = [p.seconds(_wall) for p in passes]
    print("wall-clock medians: pipeline %.4f s, draw %.4f s, validate %.4f s,"
          " setup %.4f s" % (*(median(col) for col in zip(*wall)),
                             median(_wall(*st) for st in setup_stamps)),
          file=sys.stderr)
    metrics = {
        "pipeline_s": median(r[0] for r in ref),
        "draw_s": median(r[1] for r in ref),
        "validate_s": median(r[2] for r in ref),
        "setup_s": median(clock.seconds(*st) for st in setup_stamps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    return metrics, cases, passes


def _traced_pass(cases, tracers: list) -> Pass:
    tracer = spans.Tracer()
    with spans.traced(tracer, extra_modules=(sys.modules[__name__],)):
        res = run_pass(cases, tracer)
    tracers.append(tracer)
    return res


def _traced_setup(workload, seed: int, size: int):
    tracer = spans.Tracer()
    fan = (("generate.fan_build", workloads, "fan"),)
    with spans.traced(tracer, spans.TARGETS + fan,
                      extra_modules=(sys.modules[__name__], workloads)):
        with tracer.span("setup"):
            texts = make_texts(workload, seed, size)
    return texts, tracer


TIMED = ("io.graph_from_text", "io.drawing_to_text", "io.drawing_from_text",
         "graph.build_graph", "ordering.find_bitonic_ordering",
         "ordering.order_split_graph", "ordering.verify_bitonic_ordering",
         "splitting.minimum_split_plan", "splitting.apply_splits",
         "layout.draw_straightline", "layout.draw_polyline",
         "validate.check_upward_planar", "validate.check_bounds")
SELF_TIMED = {"io.parse_self": "io.graph_from_text",
              "layout.contour_self": "layout.draw_straightline",
              "layout.fold": "layout.draw_polyline"}
SETUP_TIMED = {"generate.generate_random_st_graph_s":
               "generate.generate_random_st_graph",
               "generate.add_random_chords_s": "generate.add_random_chords",
               "generate.fan_build_s": "generate.fan_build",
               "graph.build_graph_setup_s": "graph.build_graph",
               "io.graph_to_text_s": "io.graph_to_text"}


def layer_times(pipeline_tracers, setup_tracer, clock) -> dict[str, float]:
    """Median per-pass times and self times of each layer, in seconds."""
    per_pass = []
    for tr in pipeline_tracers:
        wall, self_t = tr.totals(clock)
        row = {f"{name}_s": wall.get(name, 0.0) for name in TIMED}
        row.update({f"{name}_s": self_t.get(src, 0.0)
                    for name, src in SELF_TIMED.items()})
        row["layers_self_s"] = sum(v for k, v in self_t.items()
                                   if k not in ("draw", "validate"))
        per_pass.append(row)
    out = {k: median(row[k] for row in per_pass) for k in per_pass[0]}
    wall, _ = setup_tracer.totals(clock)
    out.update({k: wall.get(src, 0.0) for k, src in SETUP_TIMED.items()})
    return out


def measure_traced(workload, seed: int, seconds: float, size: int):
    """Traced run: per-layer times, counts and doubling ratios."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracers: list = []
    half_tracers: list = []

    def pair():
        # alternate which side runs first, so drift in machine speed
        # falls on both sides alike
        if len(traced) % 2:
            traced.append(_traced_pass(cases, tracers))
            untraced.append(run_pass(cases))
        else:
            untraced.append(run_pass(cases))
            traced.append(_traced_pass(cases, tracers))

    with ProbeClock() as clock:
        texts, setup_tracer = _traced_setup(workload, seed, size)
        cases = gate(workload, texts)
        _loop(seconds, MIN_TRACED, pair)
        half_texts, half_setup = _traced_setup(workload, seed, size // 2)
        half_cases = gate(workload, half_texts)
        half = [_traced_pass(half_cases, half_tracers)
                for _ in range(MIN_TRACED)]
    full = layer_times(tracers, setup_tracer, clock.seconds)
    halved = layer_times(half_tracers, half_setup, clock.seconds)

    layers_self = full.pop("layers_self_s")
    del halved["layers_self_s"]
    base = median(p.seconds(clock.seconds)[0] for p in untraced)
    counts = tracers[0].counts
    splits = counts["splitting.splits"]
    transitive = sum(c.transitive_splits for c in cases)
    bound = sum(max(c.n - 3, 0) for c in cases)
    m = dict(full)
    m.update({
        "io.graph_text_bytes": sum(len(c.text.encode()) for c in cases),
        "graph.n": sum(c.n for c in cases),
        "graph.m": sum(c.m for c in cases),
        "graph.faces": sum(c.faces for c in cases),
        "ordering.rejected": sum(c.rejected for c in cases),
        "ordering.gap_edges": counts["ordering.gap_edges"],
        "splitting.splits": splits,
        "splitting.transitive_splits": transitive,
        "splitting.split_saving_ratio": (splits / transitive
                                         if transitive else 1.0),
        "splitting.bound_ratio": splits / bound if bound else 0.0,
        "layout.bends": sum(c.bends for c in cases),
        "layout.width_ratio": max(c.width_ratio for c in cases),
        "layout.height_ratio": max(c.height_ratio for c in cases),
        "validate.pieces": counts["validate.pieces"],
        "validate.brute_share": counts["validate.brute_graphs"] / len(cases),
        "trace.overhead_frac": (median(p.seconds(clock.seconds)[0]
                                       for p in traced) / base - 1.0
                                if base else 0.0),
        "trace.accounted_frac": layers_self / base if base else 0.0,
    })
    for k in full:
        m[f"{k}.doubling"] = full[k] / halved[k] if halved[k] else 0.0
    write_spans(workload.name, seed, {
        "setup": setup_tracer.spans, "half_setup": half_setup.spans,
        "passes": [t.spans for t in tracers],
        "half_passes": [t.spans for t in half_tracers]})
    return m, cases, untraced + traced + half


def write_spans(workload: str, seed: int, payload) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(payload))


def _units(bench: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench[key]}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: int | None = None) -> dict:
    """One benchmark run; returns the result object that is printed."""
    workload = workloads.WORKLOADS[workload_name]
    size = size or workload.size
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values, cases, passes = measure_traced(workload, seed, seconds, size)
        units = _units(bench, "per_layer")
    else:
        values, cases, passes = measure(workload, seed, seconds, size)
        units = _units(bench, "end_to_end")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        values["failed_frac"] = failed / attempted
    digest = batch_digest(cases)
    agree = record_digest(workload.name, seed, size, digest)
    print(f"digest {workload.name} seed={seed} size={size} {digest}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0 and agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long to repeat the measured passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
