"""Tiny-size self-test of the benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q benchmark/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from clock import probe

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"seed-bulk": 40, "fan-split": 12, "small-chorded": 12}


@pytest.fixture(autouse=True)
def _quick_private_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def test_workloads_match_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in BENCH["workloads"])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace):
    result = run.run(workload, 3, 0, trace, size=TINY[workload])
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_reruns_agree_on_the_digest(capsys):
    run.run("seed-bulk", 5, 0, False, size=30)
    first = capsys.readouterr().out
    result = run.run("seed-bulk", 5, 0, True, size=30)
    assert result["correct"]
    assert capsys.readouterr().out == first


def _swap_first_two_vertices(text: str) -> str:
    lines = text.splitlines()
    (v0, *p0), (v1, *p1) = lines[0].split(), lines[1].split()
    lines[0], lines[1] = " ".join([v0, *p1]), " ".join([v1, *p0])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", sorted(TINY))
def test_corrupted_drawing_counts_as_failed(workload, monkeypatch):
    emit = run.drawing_to_text
    monkeypatch.setattr(run, "drawing_to_text",
                        lambda g, d: _swap_first_two_vertices(emit(g, d)))
    result = run.run(workload, 3, 0, False, size=TINY[workload])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "fan-split",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_clock_tracks_wall_time():
    with run.ProbeClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            probe()
        t1 = time.perf_counter()
    ref = clock.seconds(t0, t1)
    assert len(clock.samples) >= 3
    assert 0.2 * (t1 - t0) < ref < 5 * (t1 - t0)
    assert clock.seconds(t0, t0 + (t1 - t0) / 2) < ref
