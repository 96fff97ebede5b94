#!/usr/bin/env python3
"""Benchmark of the rahar CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload fortnight --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Run from the root of a checkout; ``src/rahar`` is used as it stands.

``--trace 0`` (end-to-end): writes the workload's epoch CSVs from the
seed, times ``python -m rahar --version`` (set-up), then runs
``python -m rahar run`` one child at a time, in a closed loop, until the
next run would end after ``--seconds``.  Every run is checked against the
planted truth; a wrong answer counts as a failed run.  Reports medians of
the wall time, epochs per second and peak RSS of the runs.

``--trace 1`` (per layer): one CLI run, then the same CLI call in-process
with every layer wrapped by ``tracing``, then single calls of
``best_split``, ``permutation_test`` and ``cross_validate`` (probes).  The
traced outputs must be byte-identical to the CLI's.  Reports self time
per layer, counts, and the manifest's stage timings.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the rest goes to standard error.
Scratch files live under ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 9


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in blas_env},
    }


class Child:
    """One CLI process: wall time from spawn to exit, exit code, rusage."""

    def __init__(self, argv: list[str], log_path: Path, cwd: Path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        with open(log_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd)
            try:
                _, status, self.usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.log_path = log_path

    @property
    def peak_rss_mb(self) -> float:
        return self.usage.ru_maxrss / 1024.0  # Linux reports KiB

    @property
    def cpu_s(self) -> float:
        return self.usage.ru_utime + self.usage.ru_stime


def rahar(*args: str) -> list[str]:
    return [sys.executable, "-m", "rahar", *args]


def output_digest(manifest: dict) -> str:
    return hashlib.sha256(json.dumps(manifest["outputs"], sort_keys=True).encode()).hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, **shape):
        import workloads

        self.workload = workloads.WORKLOADS[workload]
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir()
        t = time.perf_counter()
        self.recordings = workloads.build(workload, seed, **shape)
        for rec in self.recordings:
            workloads.write_csv(rec, self.inputs / f"{rec.name}.csv")
        if workload == "fortnight":
            digest = hashlib.sha256((self.inputs / "fortnight.csv").read_bytes()).hexdigest()
            if digest != workloads.CRITERION_10_SHA256:
                raise SystemExit(f"perfbench: fortnight.csv has sha256 {digest}, not the criterion-10 recording")
        self.epochs = sum(len(r.series) for r in self.recordings)
        log(f"{workload}: seed {seed}, {len(self.recordings)} recording(s), {self.epochs} epochs, "
            f"generated in {time.perf_counter() - t:.1f} s")
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def argv(self, out_dir: Path) -> list[str]:
        return ["run", "--in", str(self.inputs), "--report", str(out_dir), *self.workload.cli_args()]

    def cli_run(self, k: int) -> tuple[Child, dict | None]:
        """One checked CLI run; returns the child and its manifest (None if it failed)."""
        from checks import check_outputs

        out_dir = self.work / f"run{k}"
        child = Child(rahar(*self.argv(out_dir)), self.work / f"run{k}.log", self.work)
        self.attempted += 1
        manifest = None
        if child.code != 0:
            problems = [f"exit code {child.code}: {child.log_path.read_text()[-2000:]}"]
        else:
            problems = check_outputs(self.recordings, out_dir)
            manifest = json.loads((out_dir / "manifest.json").read_text())
            self.digests.add(output_digest(manifest))
            if len(self.digests) > 1:
                problems.append("output digests differ between repetitions")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for p in problems[:20]:
                log(f"FAILED run {k}: {p}")
            return child, None
        return child, manifest

    def end_to_end(self, seconds: float) -> dict:
        log(f"set-up: {SETUP_REPEATS} x rahar --version after one warm-up")
        Child(rahar("--version"), self.work / "version.log", self.work)
        setups = []
        for _ in range(SETUP_REPEATS):
            child = Child(rahar("--version"), self.work / "version.log", self.work)
            if child.code != 0:
                raise SystemExit(f"perfbench: rahar --version exited {child.code}")
            setups.append(child.wall)
        runs: list[Child] = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start + statistics.fmean(c.wall for c in runs) <= seconds:
            child, manifest = self.cli_run(len(runs))
            runs.append(child)
            log(f"run {len(runs)}: {child.wall:.3f} s, peak {child.peak_rss_mb:.1f} MB, "
                f"cpu {child.cpu_s:.2f} s, {'ok' if manifest else 'FAILED'}")
        run_s = statistics.median(c.wall for c in runs)
        return {
            "run_s": (run_s, "s"),
            "epochs_per_s": (self.epochs / run_s, "epochs/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in runs), "MB"),
        }

    def per_layer(self, trace_path: Path) -> dict:
        import tracing

        child, manifest = self.cli_run(0)
        tracer = tracing.Tracer(self.workload.name)
        traced_dir = self.work / "traced"
        replaced = tracing.instrument(tracer)
        try:
            cli = sys.modules["rahar.cli"]
            code = cli.main(self.argv(traced_dir))
        finally:
            tracing.restore(replaced)
        self.attempted += 1
        traced = json.loads((traced_dir / "manifest.json").read_text()) if code == 0 else None
        if manifest is None or traced is None or traced["outputs"] != manifest["outputs"]:
            self.failed += 1
            log("FAILED fidelity: the traced pass did not reproduce the CLI outputs")
        probe(tracer)
        tracer.write(trace_path)

        totals = tracing.totals_by_name(tracer.spans)
        metrics = {f"{name}_s": (totals.get(name, 0.0), "s") for name in TIMED_LAYERS}
        timings = (manifest or {}).get("timings_s", {})
        for stage in ("ingest", "analyze", "features", "reports"):
            metrics[f"pipeline.{stage}_s"] = (timings.get(stage, 0.0), "s")
        metrics["cli.cpu_s"] = (child.cpu_s, "s")
        metrics.update(counts(tracer.spans))

        pipeline_s = next(s.end - s.start for s in tracer.spans if s.name == "pipeline.run")
        overhead = pipeline_s - sum(timings.values())
        log(f"tracing overhead: {overhead:+.3f} s ({overhead / pipeline_s:+.1%}) "
            f"over the CLI's own stage timings of {sum(timings.values()):.3f} s")
        main = next(s for s in tracer.spans if s.name == "cli.main")
        main_s = main.end - main.start
        by_layer: dict[str, float] = {}
        call = [s for s in tracer.spans if main.start <= s.start and s.end <= main.end]
        for name, t in tracing.totals_by_name(call).items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + t
        for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            log(f"  self time {layer:<12} {t:9.3f} s  {t / main_s:6.1%} of the traced CLI call")
        return metrics


# per-layer self-time metrics, named after their span
TIMED_LAYERS = [
    "ingest.parse", "ingest.validate", "cutpoints.classify", "sleep.mask", "sleep.periods",
    "sleep.metrics", "segments.segment", "pipeline.observations", "changepoint.e_divisive",
    "changepoint.best_split", "changepoint.permutation_test", "modes.label", "features.dataset",
    "reports.write", "models.cv_logreg", "models.cv_adaboost", "models.cv_rf",
]


def counts(spans) -> dict:
    def total(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    cp = "changepoint.e_divisive"
    tests = total(cp, "tests")
    committed = total(cp, "committed")
    return {
        "ingest.epochs": (total("ingest.validate", "epochs"), "count"),
        "sleep.periods": (total("sleep.periods", "periods"), "count"),
        "segments.count": (total("segments.segment", "segments"), "count"),
        "changepoint.spans": (sum(s.name == cp for s in spans), "count"),
        "changepoint.spans_skipped": (total(cp, "skipped"), "count"),
        "changepoint.committed": (committed, "count"),
        "changepoint.tests": (tests, "count"),
        "changepoint.permutations_budgeted": (total(cp, "permutations"), "count"),
        "changepoint.commit_ratio": (committed / tests if tests else 0.0, "ratio"),
        "changepoint.dist_bytes_computed": (total(cp, "dist_bytes"), "bytes"),
        "features.rows": (total("features.dataset", "rows"), "count"),
        "features.rows_poor": (total("features.dataset", "poor"), "count"),
        "features.rows_dropped": (total("features.dataset", "dropped"), "count"),
    }


def probe(tracer) -> None:
    """Single public calls on the workload's median-length analyzed span and dataset.

    A probe that cannot apply (span too short to split, single-class
    dataset) still times the call that finds so, and says so in the trace.
    """
    import numpy as np

    from rahar.changepoint import EnergyParams, PermutationConfig, best_split, permutation_test
    from rahar.errors import ModelError, SegmentTooSmall
    from rahar.models import cross_validate, make_config
    from rahar.pipeline import derive_seed
    from workloads import CLI_SEED, FOLDS

    with tracer.span("probes"):
        spans = sorted(tracer.observations.items(), key=lambda kv: len(kv[1]))
        (recording, segment), obs = spans[(len(spans) - 1) // 2]
        tracer.recording, tracer.segment = recording, segment
        observed = np.inf
        with tracer.span("changepoint.best_split", length=len(obs)) as span:
            try:
                observed = best_split(obs, EnergyParams())[1]
            except SegmentTooSmall:
                span.attrs["status"] = "not applicable: span too short to split"
        cfg = PermutationConfig(master_seed=derive_seed(CLI_SEED, recording, segment))
        with tracer.span("changepoint.permutation_test", length=len(obs)):
            permutation_test([obs], observed, EnergyParams(), cfg)
        tracer.recording = tracer.segment = None
        ds = tracer.dataset
        for kind in ("logreg", "adaboost", "rf"):
            name = f"models.cv_{kind}"
            if any(s.name == name for s in tracer.spans):
                continue  # the traced CLI call already ran this model
            with tracer.span(name, rows=len(ds)) as span:
                try:
                    cross_validate(ds.X, ds.y, kind, config=make_config(kind, seed=CLI_SEED),
                                   folds=FOLDS, seed=CLI_SEED)
                except ModelError as exc:
                    span.attrs["status"] = f"not applicable: {exc}"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        bench = Bench(workload, seed, work)
        if trace:
            metrics = bench.per_layer(WORK / f"trace-{workload}-seed{seed}.jsonl")
        else:
            metrics = bench.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for digest in sorted(bench.digests):
        log(f"output digest {workload} seed {seed}: {digest}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="fortnight | naps | polyphasic | all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "rahar" / "__init__.py").is_file():
        log(f"perfbench: no rahar package under {SRC}; run from the root of a rahar checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    log("machine: " + json.dumps(machine()))

    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, result in results.items():
        error_rate = result["failed"] / result["attempted"]
        log(f"== {name} (seed {args.seed}, {result['attempted']} run(s) attempted)")
        for metric, m in result["metrics"].items():
            log(f"  {metric:<36} {m['value']:>16.6g} {m['unit']}")
        log(f"  {'error_rate':<36} {error_rate:>16.6g} failed/attempted")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
