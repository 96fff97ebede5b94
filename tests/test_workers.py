"""The worker pool: the same bytes as in process, the same failures, no hang.

Every pool here is built explicitly with two or three workers, and every
call that waits on one runs under ``bounded``, which gives up after a
timeout instead of hanging the suite, and no test may leave a worker
process behind.  CI also runs this module under ``python -X dev -W
error``, so a pipe or file left open fails it too.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from rahar import cli, errors, pipeline, workers
from rahar.cli import main
from rahar.ingest import serialize_epoch_csv
from rahar.pipeline import PipelineConfig, analyze_inputs, find_inputs, run_pipeline
from rahar.synth import ActivityBlock, DayProfile, generate
from rahar.workers import POOL_MIN_BYTES, Workers, pool_processes

from test_cli import run_cli_subprocess
from test_run_pins import PINS, STUDIES

TIMEOUT_S = 120.0


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []


def bounded(call, timeout: float = TIMEOUT_S):
    """``call()``, run in a daemon thread that may take at most ``timeout`` seconds."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # handed to the waiting thread, which raises it
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no result within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def write_study(root: Path, study: str = "naps") -> Path:
    root.mkdir()
    for r, profile in enumerate(STUDIES[study]):
        series, _ = generate(profile)
        with open(root / f"{study}{r}.csv", "w", newline="", encoding="utf-8") as fh:
            serialize_epoch_csv(series, fh)
    return root


def report_bytes(report: Path) -> dict[str, bytes]:
    """Every file of a report directory; the manifest without its timings."""
    files = {p.name: p.read_bytes() for p in sorted(report.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["timings_s"]
    files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


def always_workers(processes: int):
    """A stand-in for ``workers.worker_map`` that runs on ``processes`` workers
    whatever the size of the input."""

    @contextmanager
    def worker_map(paths):
        with Workers(processes) as pool:
            yield pool

    return worker_map


_PARENT_STATE = "as imported"


def _pid_and_parent_state(item):
    return os.getpid(), _PARENT_STATE


class TestWorkers:
    def test_workers_start_with_the_parents_modules(self, monkeypatch):
        # a forked worker starts from this process's modules as they stand; a
        # spawned one would import this module afresh and read "as imported"
        monkeypatch.setattr(sys.modules[__name__], "_PARENT_STATE", "set in the parent")

        def call():
            with Workers(2) as pool:
                return pool(_pid_and_parent_state, [0, 1, 2])

        results = bounded(call)
        assert [state for _, state in results] == ["set in the parent"] * 3
        assert os.getpid() not in {pid for pid, _ in results}

    def test_results_come_back_in_item_order(self):
        def call():
            with Workers(2) as pool:
                return pool(abs, [-3, 2, -1, 0, -7])

        assert bounded(call) == [3, 2, 1, 0, 7]

    def test_the_first_failing_item_is_raised(self):
        def call():
            with Workers(2) as pool:
                return pool(int, ["1", "first", "2", "second"])

        with pytest.raises(ValueError, match="'first'"):
            bounded(call)

    def test_fewer_than_two_processes_is_no_pool(self):
        with pytest.raises(ValueError, match="at least 2"):
            Workers(1)

    def test_a_dead_worker_is_a_worker_lost(self):
        def call():
            with Workers(2) as pool:
                return pool(os._exit, [3, 3])

        with pytest.raises(errors.WorkerLost) as info:
            bounded(call)
        assert "\n" not in str(info.value)


def _exit_worker(*args):
    """A task that ends its worker process without a result."""
    os._exit(3)


class TestPooledRuns:
    @pytest.mark.parametrize("processes", [2, 3])
    def test_reports_equal_the_in_process_run(self, processes, tmp_path):
        study = write_study(tmp_path / "naps")
        config = PipelineConfig(model="rf")
        serial = tmp_path / "serial"
        run_pipeline(find_inputs(study), serial, config)
        pooled = tmp_path / "pooled"

        def call():
            with Workers(processes) as pool:
                return run_pipeline(find_inputs(study), pooled, config, map=pool)

        bounded(call)
        assert report_bytes(pooled) == report_bytes(serial)
        assert json.loads((pooled / "manifest.json").read_text())["outputs"] == PINS["naps"]

    def test_sleep_only_analyses_equal_the_in_process_ones(self, tmp_path):
        paths = find_inputs(write_study(tmp_path / "naps"))
        config = PipelineConfig()

        def call():
            with Workers(2) as pool:
                return analyze_inputs(paths, config, sleep_only=True, map=pool)

        pooled = bounded(call)
        serial = analyze_inputs(paths, config, sleep_only=True)
        for a, b in zip(pooled, serial, strict=True):
            assert a.series == b.series and a.periods == b.periods and a.segments == b.segments

    def test_the_first_bad_file_in_order_is_reported(self, tmp_path, monkeypatch, capsys):
        study = write_study(tmp_path / "study")
        names = ["a.csv", "b.csv", "c.csv", "d.csv"]
        sources = sorted(study.glob("*.csv"))
        for name, source in zip(names, sources + sources[:1]):
            (study / name).write_bytes(source.read_bytes())
        for source in sources:
            source.unlink()
        lines = (study / "b.csv").read_text().splitlines()
        fields = lines[4].split(",")
        fields[1] = "-3"
        lines[4] = ",".join(fields)
        (study / "b.csv").write_text("\n".join(lines) + "\n")
        gappy = (study / "d.csv").read_text().splitlines()
        (study / "d.csv").write_text("\n".join(gappy[:200] + gappy[230:]) + "\n")

        serial = tmp_path / "serial"
        serial_code = main(["run", "--in", str(study), "--report", str(serial)])
        serial_err = capsys.readouterr().err
        assert serial_err == "parse error: b.csv: line 5: axis1 = -3 is negative\n"

        monkeypatch.setattr(cli, "worker_map", always_workers(2))
        pooled = tmp_path / "pooled"
        code = bounded(lambda: main(["run", "--in", str(study), "--report", str(pooled)]))
        assert (code, capsys.readouterr().err) == (serial_code, serial_err) == (2, serial_err)
        assert not serial.exists() and not pooled.exists()

    def test_a_dead_worker_ends_in_one_line(self, tmp_path, monkeypatch, capsys):
        study = write_study(tmp_path / "naps")
        monkeypatch.setattr(cli, "worker_map", always_workers(2))
        monkeypatch.setattr(pipeline, "_span_change_points", _exit_worker)
        report = tmp_path / "report"
        code = bounded(lambda: main(["run", "--in", str(study), "--report", str(report)]))
        err = capsys.readouterr().err
        assert code == cli.EXIT_WORKER == 1
        assert err.startswith("worker failure: a worker process ended") and err.count("\n") == 1
        assert not report.exists()

    def test_each_output_line_is_written_once(self, tmp_path, monkeypatch):
        # a worker forks with a copy of every buffer this process holds: none
        # may reach stdout or stderr a second time
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)  # so stdout holds a buffer
        study = write_study(tmp_path / "naps")
        outputs = {}
        for side, worker_map in (("serial", "in_process"), ("pooled", "always_workers")):
            report = tmp_path / side
            proc = run_cli_subprocess("run", "--in", str(study), "--report", str(report),
                                      prelude=f"{MAPS}\ncli.worker_map = {worker_map}\n{BEFORE}")
            assert proc.returncode == 0, proc.stderr
            outputs[side] = (proc.stdout, proc.stderr.replace(str(report), "<report>"))
        assert outputs["pooled"] == outputs["serial"]
        stdout, stderr = outputs["pooled"]
        assert stdout == "before the run\n"
        assert stderr == "wrote 13 output file(s) + <report>/manifest.json\n"


# stand-ins for `cli.worker_map` in a fresh interpreter, whatever the size of the input
MAPS = """
from contextlib import contextmanager, nullcontext
from rahar import cli
from rahar.workers import Workers

def in_process(paths):
    return nullcontext(map)

@contextmanager
def always_workers(paths):
    with Workers(2) as pool:
        yield pool
"""
BEFORE = 'print("before the run")  # left in the stdout buffer when the workers fork'


class TestGate:
    """Which side of ``POOL_MIN_BYTES`` a recording falls on, by size alone."""

    @pytest.fixture
    def recordings(self, tmp_path):
        day = (
            ActivityBlock("sleep", 480),
            ActivityBlock("sedentary", 420),
            ActivityBlock("light", 300),
            ActivityBlock("moderate", 240),
        )
        profiles = {
            "fortnight": DayProfile(schedule=day * 14, noise=0.02, seed=1406),
            # the one-day profile of the console-script step in CI
            "oneday": DayProfile(
                schedule=(
                    ActivityBlock("sedentary", 120),
                    ActivityBlock("sleep", 480),
                    ActivityBlock("light", 100),
                    ActivityBlock("sedentary", 30),
                    ActivityBlock("sleep", 420),
                    ActivityBlock("moderate", 100),
                    ActivityBlock("sedentary", 190),
                ),
                seed=3,
            ),
        }
        paths = {}
        for name, profile in profiles.items():
            series, _ = generate(profile)
            paths[name] = tmp_path / f"{name}.csv"
            with open(paths[name], "w", newline="", encoding="utf-8") as fh:
                serialize_epoch_csv(series, fh)
        return paths

    def test_fortnight_on_workers_one_day_in_process(self, recordings, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert recordings["fortnight"].stat().st_size >= POOL_MIN_BYTES
        assert pool_processes([recordings["fortnight"]]) == 2
        assert recordings["oneday"].stat().st_size < POOL_MIN_BYTES
        assert pool_processes([recordings["oneday"]]) == 0

    def test_one_cpu_is_in_process(self, recordings, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert pool_processes([recordings["fortnight"]]) == 0

    def test_no_cpu_affinity_is_in_process(self, recordings, monkeypatch):
        # macOS and Windows, where a worker cannot safely be forked
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert pool_processes([recordings["fortnight"]]) == 0

    def test_in_process_map_below_the_gate(self, recordings):
        with workers.worker_map([recordings["oneday"]]) as map_units:
            assert map_units is map


def _raised(call) -> BaseException:
    try:
        call()
    except BaseException as exc:
        return exc
    raise AssertionError("nothing raised")


def _all_subclasses(cls) -> set[type]:
    return {sub for direct in cls.__subclasses__() for sub in {direct, *_all_subclasses(direct)}}


class TestErrorsCrossProcesses:
    """Each error a worker can raise comes back as it was raised."""

    HEADER = "timestamp,axis1,axis2,axis3,steps,inclinometer\n"

    def load_failure(self, tmp_path, rows: list[str]) -> BaseException:
        path = tmp_path / "x.csv"
        path.write_text(self.HEADER + "".join(r + "\n" for r in rows))
        return _raised(lambda: analyze_inputs([path], PipelineConfig(), sleep_only=True))

    def examples(self, tmp_path) -> dict[type, BaseException]:
        row = "2014-09-01T22:{:02d}:00+00:00,{},0,0,0,{}"
        loaded = {
            errors.MalformedRow: [row.format(0, 1, "off") + ",9"],
            errors.NegativeCount: [row.format(0, -3, "off")],
            errors.UnknownInclinometer: [row.format(0, 1, "upside")],
            errors.GapDetected: [row.format(0, 1, "off"), row.format(5, 1, "off")],
            errors.DuplicateTimestamp: [row.format(0, 1, "off"), row.format(0, 1, "off")],
            errors.NonMonotone: [row.format(1, 1, "off"), row.format(0, 1, "off")],
        }
        found = {cls: self.load_failure(tmp_path, rows) for cls, rows in loaded.items()}
        path = tmp_path / "bad_header.csv"
        path.write_text("time\n")
        found[errors.ParseError] = _raised(lambda: analyze_inputs([path], PipelineConfig()))
        return found

    def test_every_rahar_error_round_trips(self, tmp_path):
        found = self.examples(tmp_path)
        for cls, exc in found.items():
            assert type(exc) is cls, exc
            assert str(exc).startswith(("x.csv: ", "bad_header.csv: ")), exc
        for cls in _all_subclasses(errors.RaharError) - found.keys():
            found[cls] = cls(f"{cls.__name__} message")  # every other error takes one message
        assert len(found) == len(_all_subclasses(errors.RaharError))
        for cls, exc in found.items():
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is cls
            assert str(back) == str(exc) and back.args == exc.args
            assert vars(back) == vars(exc)
        assert found[errors.GapDetected].gaps  # so vars() compared real gaps
