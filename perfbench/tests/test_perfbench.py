"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They stay out of the repository's own suite (its testpaths is ``tests``)
because they spawn the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rahar.synth import ActivityBlock, DayProfile, save_profile  # noqa: E402

SMALL_NAPS = {"recordings": 2, "days": 2}


def _segments(workload: str, seed: int, **shape):
    return [
        seg
        for _, profile in workloads.PROFILES[workload](seed, **shape)
        for seg in workloads.segments_of(workloads.schedule_of(profile))
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polyphasic_spans_are_too_short_to_split(seed):
    spans = [s.awake_epochs for s in _segments("polyphasic", seed) if s.awake_epochs]
    assert len(spans) == 32 * 61
    assert max(spans) < 2 * workloads.MIN_SEGMENT


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_naps_spans_are_at_least_60(seed):
    spans = [s.awake_epochs for s in _segments("naps", seed) if s.awake_epochs]
    assert len(spans) == 12 * 19
    assert min(spans) >= 60


@pytest.mark.parametrize("workload", ["naps", "polyphasic"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_class_fills_every_fold(workload, seed):
    rows = [s for s in _segments(workload, seed) if s.is_row]
    poor = sum(s.poor for s in rows)
    assert poor >= workloads.FOLDS
    assert len(rows) - poor >= workloads.FOLDS


@pytest.mark.parametrize("workload", ["naps", "polyphasic"])
def test_seed_changes_inputs_but_not_the_work(workload):
    a, b = _segments(workload, 1), _segments(workload, 2)
    assert a != b
    assert sorted(s.awake_epochs for s in a) == sorted(s.awake_epochs for s in b)


def test_planted_schedule_matches_generator_truth():
    for rec in workloads.build("naps", 3, **SMALL_NAPS):
        assert rec.truth.mode_schedule == workloads.schedule_of(rec.profile)
        onsets = [p.onset_index for p in rec.truth.periods if not p.truncated]
        assert [s.awake_end for s in workloads.segments_of(rec.truth.mode_schedule)] == onsets


def test_fortnight_is_the_criterion_10_recording(tmp_path):
    day = (
        ActivityBlock("sleep", 480),
        ActivityBlock("sedentary", 420),
        ActivityBlock("light", 300),
        ActivityBlock("moderate", 240),
    )
    save_profile(DayProfile(schedule=day * 14, noise=0.02, seed=1406), tmp_path / "c10.json")
    subprocess.run(
        [sys.executable, "-m", "rahar", "synth", "--profile", str(tmp_path / "c10.json"),
         "--out", str(tmp_path / "synth.csv")],
        check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    for seed in (0, 5):
        [rec] = workloads.build("fortnight", seed)
        workloads.write_csv(rec, tmp_path / "fortnight.csv")
        digest = hashlib.sha256((tmp_path / "fortnight.csv").read_bytes()).hexdigest()
        assert digest == workloads.CRITERION_10_SHA256
    assert hashlib.sha256((tmp_path / "synth.csv").read_bytes()).hexdigest() == workloads.CRITERION_10_SHA256


def _span(i, name, parent, start, end):
    return tracing.Span(i, name, parent, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "a.child", 1, 2.0, 3.0),
        _span(3, "b", 0, 3.0, 6.0),  # overlaps a: [1, 6] is covered once
        _span(4, "a", 0, 9.0, 12.0),  # runs past its parent: only [9, 10] counts there
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 1.0, 3.0, 3.0])
    assert tracing.totals_by_name(spans) == pytest.approx({"root": 4.0, "a": 5.0, "a.child": 1.0, "b": 3.0})


def _count_metrics(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}


def test_counters_repeat_exactly(tmp_path):
    seen = []
    for k in range(2):
        work = tmp_path / f"w{k}"
        work.mkdir()
        bench = run.Bench("naps", 3, work, **SMALL_NAPS)
        metrics = bench.per_layer(tmp_path / f"trace{k}.jsonl")
        assert (bench.attempted, bench.failed) == (2, 0)
        seen.append(_count_metrics(metrics))
    assert seen[0] == seen[1]
    counts = seen[0]
    assert counts["features.rows"] == 2 * (2 * 5 - 1)
    assert counts["changepoint.spans"] == counts["features.rows"]
    assert counts["changepoint.tests"] >= counts["changepoint.committed"] > 0
    lines = (tmp_path / "trace0.jsonl").read_text().splitlines()
    assert {json.loads(line)["name"] for line in lines} >= {"cli.main", "changepoint.e_divisive", "probes"}


def test_check_catches_a_wrong_label(tmp_path):
    recordings = workloads.build("naps", 3, **SMALL_NAPS)
    (tmp_path / "in").mkdir()
    for rec in recordings:
        workloads.write_csv(rec, tmp_path / "in" / f"{rec.name}.csv")
    out = tmp_path / "out"
    subprocess.run(
        run.rahar("run", "--in", str(tmp_path / "in"), "--report", str(out), "--seed", "7"),
        check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert checks.check_outputs(recordings, out) == []
    dataset = out / "dataset.csv"
    text = dataset.read_text()
    dataset.write_text(text.replace("good\n", "poor\n", 1))
    assert any("dataset.csv" in p for p in checks.check_outputs(recordings, out))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "naps", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
