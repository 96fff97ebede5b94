from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rahar
from rahar import cli, models, pipeline
from rahar.cli import PARAMETERS, _config_from_args, build_parser, main
from rahar.features import read_dataset_csv
from rahar.pipeline import PipelineConfig
from rahar.synth import ActivityBlock, DayProfile, save_profile

import cli_faults
from cli_faults import DATASET_HEADER, DATASET_ROW, EPOCH_ROW


@pytest.fixture
def study_dir(tmp_path):
    """Two synthetic recordings with one good and one poor sleep each.

    Efficiency here is driven by latency (synthetic sleep has zero WASO):
    the second sleep follows a 30-min sedentary run (eff 390/450 = 0.867,
    good), the third a 120-min one (eff 280/520 = 0.538, poor).
    """
    recordings = tmp_path / "study"
    recordings.mkdir()
    for i, seed in enumerate([11, 12]):
        profile = DayProfile(
            schedule=(
                ActivityBlock("sedentary", 120),
                ActivityBlock("sleep", 480),
                ActivityBlock("light", 100),
                ActivityBlock("sedentary", 30),
                ActivityBlock("sleep", 420),
                ActivityBlock("moderate", 100),
                ActivityBlock("sedentary", 120),
                ActivityBlock("sleep", 400),
                ActivityBlock("light", 60),
            ),
            seed=seed,
        )
        ppath = tmp_path / f"profile{i}.json"
        save_profile(profile, ppath)
        assert main(["synth", "--profile", str(ppath), "--out", str(recordings / f"subj{i}.csv")]) == 0
    return recordings


def read_csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSubcommands:
    def test_validate_ok(self, study_dir):
        target = next(iter(sorted(study_dir.glob("*.csv"))))
        assert main(["validate", "--in", str(target)]) == 0

    def test_validate_gap_exit_code(self, tmp_path, study_dir, capsys):
        target = sorted(study_dir.glob("*.csv"))[0]
        lines = target.read_text().splitlines()
        broken = tmp_path / "gappy.csv"
        broken.write_text("\n".join(lines[:200] + lines[230:]) + "\n")
        assert main(["validate", "--in", str(broken)]) == 3
        # the one-line GapDetected report that `run` prints too
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("validation failure: 1 gap(s): ") and err.endswith(" (30 missing)\n")
        assert main(["validate", "--in", str(broken), "--fill-gaps", "sedentary-zero"]) == 0
        assert capsys.readouterr().err == f"{broken}: OK ({len(lines) - 1} epochs)\n"

    def test_validate_honours_aggregate(self, study_dir, capsys):
        target = sorted(study_dir.glob("*.csv"))[0]
        epochs = len(target.read_text().splitlines()) - 1
        assert main(["validate", "--in", str(target), "--aggregate", "3"]) == 0
        assert capsys.readouterr().err == f"{target}: OK ({epochs // 3} epochs)\n"

    def test_sleep_report(self, study_dir, tmp_path):
        out = tmp_path / "sleep.json"
        code = main(["sleep", "--in", str(sorted(study_dir.glob('*.csv'))[0]), "--age", "16",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert rows[0]["onset_index"] == 120
        # TST = duration - WASO - latency, TMB = duration + latency:
        # the 120-min sedentary run before onset is all latency
        assert rows[0]["efficiency"] == pytest.approx(360 / 600)
        assert rows[1]["efficiency"] == pytest.approx(390 / 450)
        assert rows[2]["efficiency"] == pytest.approx(280 / 520)
        assert not any(r["truncated"] for r in rows)
        assert "T" in rows[0]["onset"]  # ISO-8601 timestamp

    def test_segment_manifest(self, study_dir, tmp_path):
        out = tmp_path / "segments.csv"
        assert main(["segment", "--in", str(sorted(study_dir.glob('*.csv'))[0]), "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert rows[0] == [
            "segment_id", "awake_start", "awake_end", "onset", "awakening", "efficiency", "flags",
        ]
        assert rows[1][1] == "0" and rows[1][2] == "120"
        assert "first_segment" in rows[1][6]

    def test_changepoints_and_modes(self, study_dir, tmp_path):
        src = str(sorted(study_dir.glob("*.csv"))[0])
        cp_out = tmp_path / "cps.csv"
        mode_out = tmp_path / "modes.csv"
        assert main(["changepoints", "--in", src, "--out", str(cp_out), "--seed", "3"]) == 0
        assert main(["modes", "--in", src, "--out", str(mode_out), "--seed", "3"]) == 0
        cp_rows = read_csv_rows(cp_out)
        assert cp_rows[0] == ["segment_id", "cp_index", "statistic", "p_value"]
        mode_rows = read_csv_rows(mode_out)
        assert mode_rows[0] == ["segment_id", "start", "end", "mode"]
        assert len(mode_rows) >= 3  # at least one interval per awake span
        assert all(r[3] in {"sedentary", "light", "moderate", "vigorous"} for r in mode_rows[1:])
        # awake span 2 is 100 light / 30 sedentary; span 3 is 100 moderate /
        # 120 sedentary: each has a strong boundary at offset 100
        for seg_suffix in (":001", ":002"):
            indices = [int(r[1]) for r in cp_rows[1:] if r[0].endswith(seg_suffix)]
            assert any(abs(i - 100) <= 3 for i in indices), (seg_suffix, indices)

    def test_features_dataset(self, study_dir, tmp_path):
        out = tmp_path / "dataset.csv"
        assert main(["features", "--in", str(study_dir), "--out", str(out), "--seed", "5"]) == 0
        rows = read_csv_rows(out)
        assert rows[0][0] == "segment_id"
        # 2 recordings x 3 periods, first segments excluded -> 2 rows each
        assert len(rows) - 1 == 4
        labels = []
        for row in rows[1:]:
            fracs = [float(v) for v in row[1:5]]
            assert abs(sum(fracs) - 1.0) <= 1e-9
            labels.append(row[7])
        assert sorted(labels) == ["good", "good", "poor", "poor"]

    def test_eval_subcommand(self, tmp_path):
        scored = tmp_path / "scored.csv"
        scored.write_text("score,label\n0.9,good\n0.2,poor\n0.7,good\n0.4,poor\n")
        out = tmp_path / "report.json"
        assert main(["eval", "--in", str(scored), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["auc"] == 1.0 and report["f1"] == 1.0


class TestRun:
    def test_full_run_outputs(self, study_dir, tmp_path):
        out = tmp_path / "report"
        code = main(
            ["run", "--in", str(study_dir), "--report", str(out), "--seed", "7",
             "--model", "logreg", "--folds", "2"]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        for stem in ("subj0", "subj1"):
            for suffix in (".sleep.json", ".segments.csv", ".changepoints.csv", ".modes.csv"):
                assert f"{stem}{suffix}" in names
        assert {"dataset.csv", "model_report.json", "roc.csv", "roc.svg", "manifest.json"} <= names
        # what `run` refuses to write over before any work
        inputs = sorted(study_dir.glob("*.csv"))
        assert set(pipeline.run_outputs(inputs, PipelineConfig(model="logreg"))) == names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 7
        assert set(manifest["outputs"]) == names - {"manifest.json"}
        report = json.loads((out / "model_report.json").read_text())
        assert report["model_kind"] == "logreg"
        assert 0.0 <= report["pooled"]["auc"] <= 1.0
        svg = (out / "roc.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_empty_dataset_exit_code(self, tmp_path):
        # a recording with a single (first) segment filters down to nothing
        profile = DayProfile(
            schedule=(
                ActivityBlock("sedentary", 120),
                ActivityBlock("sleep", 480),
                ActivityBlock("sedentary", 60),
            ),
            seed=3,
        )
        ppath = tmp_path / "p.json"
        save_profile(profile, ppath)
        rec = tmp_path / "one.csv"
        assert main(["synth", "--profile", str(ppath), "--out", str(rec)]) == 0
        code = main(
            ["run", "--in", str(rec), "--report", str(tmp_path / "rep"), "--model", "logreg"]
        )
        assert code == 4
        # empty dataset fails the run even without a model request
        assert main(["run", "--in", str(rec), "--report", str(tmp_path / "rep2")]) == 4

    def test_mode_tie_break_and_awake_feature_in_manifest(self, study_dir, tmp_path):
        out = tmp_path / "rep"
        code = main(
            ["run", "--in", str(sorted(study_dir.glob('*.csv'))[0]), "--report", str(out),
             "--mode-tie-break", "higher", "--awake-feature"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["mode_tie_break"] == "higher"
        assert manifest["parameters"]["include_awake_feature"] is True

    def test_synth_truth_output(self, tmp_path):
        profile = DayProfile(
            schedule=(ActivityBlock("sleep", 100), ActivityBlock("sedentary", 60)), seed=1
        )
        ppath = tmp_path / "p.json"
        save_profile(profile, ppath)
        truth_path = tmp_path / "truth.json"
        assert main(
            ["synth", "--profile", str(ppath), "--out", str(tmp_path / "s.csv"),
             "--truth", str(truth_path)]
        ) == 0
        truth = json.loads(truth_path.read_text())
        assert truth["periods"][0]["onset_index"] == 0
        assert truth["mode_schedule"][1]["mode"] == "sedentary"

    def test_synth_creates_the_truth_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text(json.dumps(cli_faults.DAY_PROFILE))
        argv = ["synth", "--profile", "p.json", "--out", "s.csv", "--truth", "nodir/t.json"]
        assert main(argv) == 0
        assert json.loads((tmp_path / "nodir" / "t.json").read_text())["periods"]
        assert (tmp_path / "s.csv").read_bytes().startswith(b"timestamp,")

    def test_a_directory_named_csv_is_not_a_recording(self, study_dir, tmp_path):
        (study_dir / "x.csv").mkdir()
        (study_dir / "x.csv" / "rec.csv").write_bytes((study_dir / "subj0.csv").read_bytes())
        (study_dir / "subj1.csv").unlink()
        out = tmp_path / "report"
        assert main(["run", "--in", str(study_dir), "--report", str(out), "--seed", "7"]) == 0
        assert sorted(p.name for p in out.glob("*.sleep.json")) == ["subj0.sleep.json"]
        assert list(json.loads((out / "manifest.json").read_text())["inputs"]) == ["subj0.csv"]


def run_python(*args) -> subprocess.CompletedProcess:
    """``python *args`` with the package under test importable, and standard
    output buffered as a pipe buffers it (no PYTHONUNBUFFERED)."""
    src = str(Path(rahar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=env, timeout=120
    )


def run_cli_subprocess(*args: str, prelude: str = "") -> subprocess.CompletedProcess:
    """``python -c`` with the package under test importable, after ``prelude``."""
    code = f"{prelude}\nimport sys\nfrom rahar.cli import main\nsys.exit(main(sys.argv[1:]))"
    return run_python("-c", code, *args)


def tree_bytes(root: Path) -> dict:
    """Each file under ``root`` by name: its bytes, or for a manifest its
    JSON without the timings."""
    files = {}
    for path in sorted(root.iterdir()):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            del manifest["timings_s"]
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return files


class TestConsoleEntry:
    """``python -m rahar`` runs ``cli.console_main``, which ends the process
    without interpreter teardown once its output is flushed."""

    def test_run_writes_what_an_in_process_run_writes(self, study_dir, tmp_path):
        flags = ["--seed", "7", "--model", "logreg", "--folds", "2"]
        report = tmp_path / "report"
        proc = run_python("-m", "rahar", "run", "--in", study_dir, "--report", report, *flags)
        assert proc.returncode == 0, proc.stderr
        written = len(list(report.iterdir())) - 1
        assert proc.stderr.splitlines() == [
            f"wrote {written} output file(s) + {report / 'manifest.json'}"
        ]
        assert main(["run", "--in", str(study_dir), "--report", str(tmp_path / "in_process"),
                     *flags]) == 0
        assert tree_bytes(report) == tree_bytes(tmp_path / "in_process")

    def test_a_bad_input_exits_with_its_code_and_one_line(self, tmp_path):
        (tmp_path / "bad.csv").write_text("not,an,epoch,file\n")
        report = tmp_path / "report"
        proc = run_python("-m", "rahar", "run", "--in", tmp_path / "bad.csv", "--report", report)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("parse error: ")
        assert not report.exists()

    PRELUDE = """
import atexit, sys
from rahar import cli
atexit.register(print, "teardown", file=sys.stderr)
print("before main")
"""

    def test_output_is_flushed_and_no_teardown_runs(self, tmp_path):
        # block-buffered through the pipe, the first line is written by the flush
        code = self.PRELUDE + "cli.console_main()"
        proc = run_python("-c", code, "validate", "--in", tmp_path / "missing.csv")
        assert proc.returncode == 2
        assert proc.stdout == "before main\n"
        assert proc.stderr.startswith("parse error: ") and len(proc.stderr.splitlines()) == 1

    def test_an_exception_out_of_main_takes_the_usual_exit(self):
        code = self.PRELUDE + "def boom():\n    raise RuntimeError('boom')\ncli.main = boom\ncli.console_main()"
        proc = run_python("-c", code)
        assert proc.returncode == 1
        assert proc.stdout == "before main\n"
        assert "RuntimeError: boom" in proc.stderr and proc.stderr.endswith("teardown\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_flush_takes_the_usual_exit(self, tmp_path):
        code = self.PRELUDE + "sys.stdout = open('/dev/full', 'w')\nprint('lost')\nsys.exit(cli.console_main())"
        proc = run_python("-c", code, "validate", "--in", tmp_path / "missing.csv")
        assert proc.returncode == 120  # the interpreter's code for a flush failed at exit
        assert proc.stderr.startswith("parse error: ") and "teardown" in proc.stderr


def test_cli_imports_neither_the_models_nor_synth():
    code = """
import sys
import rahar.cli
print(sorted(name for name in ("rahar.models", "rahar.synth") if name in sys.modules))
from rahar import ActivityBlock, DayProfile, generate
print(generate.__module__, DayProfile.__module__, ActivityBlock.__module__)
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "rahar.synth rahar.synth rahar.synth"]


def test_a_run_with_a_model_imports_the_trainers_before_the_analysis(study_dir, tmp_path):
    # forked workers then inherit rahar.models instead of each importing it
    code = """
import sys
from rahar import cli, pipeline
analyze_inputs, seen = pipeline.analyze_inputs, []
def spy(*args, **kwargs):
    seen.append("rahar.models.validation" in sys.modules)
    return analyze_inputs(*args, **kwargs)
pipeline.analyze_inputs = spy
code = cli.main(sys.argv[1:])
print(seen)
sys.exit(code)
"""
    for flags, loaded in (([], False), (["--model", "logreg", "--folds", "2"], True)):
        report = tmp_path / f"report{len(flags)}"
        proc = run_python("-c", code, "run", "--in", study_dir, "--report", report, *flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"[{loaded}]"]


class TestBadFlags:
    def test_exit_code_and_single_line_from_the_command(self, study_dir, tmp_path):
        report = tmp_path / "report"
        proc = run_cli_subprocess("run", "--in", str(study_dir), "--report", str(report),
                                  "--permutations", "0")
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "rahar run: error: argument --permutations: n_permutations must be >= 1, got 0"
        ]
        assert not report.exists()


@pytest.fixture(scope="session")
def recording(tmp_path_factory):
    """The bytes of the recording `cli_faults` cases copy."""
    root = tmp_path_factory.mktemp("recording")
    assert main(cli_faults.synth_argv(root)) == 0
    return (root / "rec.csv").read_bytes()


@pytest.mark.parametrize("case", cli_faults.CASES, ids=lambda case: case.name)
def test_fault_case(case, recording, tmp_path, monkeypatch, capsys):
    """One `cli_faults` case, played in process."""
    monkeypatch.chdir(tmp_path)
    cli_faults.lay_out(case, tmp_path, recording)
    before = cli_faults.snapshot(tmp_path)
    capsys.readouterr()
    try:
        code = main(list(case.argv))
    except SystemExit as exc:  # how argparse rejects a command line
        code = exc.code
    err = capsys.readouterr().err
    assert cli_faults.problems(case, code, err, before, cli_faults.snapshot(tmp_path)) == []


@pytest.mark.parametrize("argv", [
    "sleep --in rec.csv --out loop",
    "synth --profile p.json --out s.csv --truth loop",
])
def test_output_in_a_symlink_loop_exits_2_with_one_line(argv, recording, tmp_path, monkeypatch,
                                                         capsys):
    """The overwrite check resolves an output path that loops without failing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rec.csv").write_bytes(recording)
    (tmp_path / "p.json").write_text(json.dumps(cli_faults.DAY_PROFILE))
    os.symlink("loop", tmp_path / "loop")
    capsys.readouterr()
    assert main(argv.split(" ")) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: [Errno ") and err.count("\n") == 1, err
    assert "symbolic links: 'loop'" in err
    assert sorted(os.listdir(tmp_path)) == ["loop", "p.json", "rec.csv"]


def test_cli_imports_without_scipy():
    proc = run_cli_subprocess("--version", prelude="import sys\nsys.modules['scipy'] = None")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rahar ")


# one non-default value per flag that sets a PipelineConfig field
NON_DEFAULT_FLAGS = [
    (["--age", "30"], "age_years", 30),
    (["--scale-file", "scale.csv"], "scale_file", "scale.csv"),
    (["--cut-axis", "vm3"], "cut_axis", "vm3"),
    (["--signal", "vm3"], "cp_signal", "vm3"),
    (["--alpha-exp", "0.5"], "alpha_exp", 0.5),
    (["--min-segment", "40"], "min_segment", 40),
    (["--permutations", "49"], "n_permutations", 49),
    (["--significance", "0.05"], "significance", 0.05),
    (["--seed", "9"], "seed", 9),
    (["--efficiency-threshold", "0.8"], "efficiency_threshold", 0.8),
    (["--folds", "3"], "folds", 3),
    (["--model", "rf"], "model", "rf"),
    (["--fill-gaps", "sedentary-zero"], "fill_gaps", "sedentary-zero"),
    (["--features", "raw"], "features_mode", "raw"),
    (["--min-awake-min", "15"], "min_awake_min", 15.0),
    (["--min-sleep-min", "20"], "min_sleep_min", 20),
    (["--include-first-segment"], "include_first_segment", True),
    (["--aggregate", "2"], "aggregate", 2),
    (["--mode-tie-break", "higher"], "mode_tie_break", "higher"),
    (["--awake-feature"], "include_awake_feature", True),
]


class TestParameterSource:
    RUN = ["run", "--in", "rec.csv", "--report", "report"]

    def test_no_flags_give_the_default_config(self):
        assert _config_from_args(build_parser().parse_args(self.RUN)) == PipelineConfig()

    def test_every_field_is_set_by_exactly_one_flag(self):
        parser = build_parser()
        defaults = dataclasses.asdict(PipelineConfig())
        flags_by_field: dict[str, list[str]] = {}
        for argv, name, value in NON_DEFAULT_FLAGS:
            config = _config_from_args(parser.parse_args(self.RUN + argv))
            changed = {k for k, v in dataclasses.asdict(config).items() if v != defaults[k]}
            assert changed == {name}, argv
            assert getattr(config, name) == value
            flags_by_field.setdefault(name, []).append(argv[0])
        fields = {f.name for f in dataclasses.fields(PipelineConfig)} - {"candidate"}
        assert set(flags_by_field) == fields
        assert all(len(flags) == 1 for flags in flags_by_field.values())
        # and the declarations hold no flag outside that list
        flags = {param.metadata["flag"] for param in PARAMETERS}
        assert flags == {argv[0] for argv, _, _ in NON_DEFAULT_FLAGS}


class TestSubcommandsEqualRun:
    def test_reports_and_dataset_byte_identical(self, study_dir, tmp_path):
        report = tmp_path / "report"
        assert main(["run", "--in", str(study_dir), "--report", str(report), "--seed", "7"]) == 0
        single = tmp_path / "single"
        single.mkdir()
        for recording in sorted(study_dir.glob("*.csv")):
            for command, suffix in [("sleep", "sleep.json"), ("segment", "segments.csv"),
                                    ("changepoints", "changepoints.csv"), ("modes", "modes.csv")]:
                out = single / f"{recording.stem}.{suffix}"
                seed = ["--seed", "7"] if command in ("changepoints", "modes") else []
                assert main([command, "--in", str(recording), "--out", str(out), *seed]) == 0
                assert out.read_bytes() == (report / out.name).read_bytes(), out.name
        dataset = single / "dataset.csv"
        assert main(["features", "--in", str(study_dir), "--out", str(dataset),
                     "--seed", "7"]) == 0
        assert dataset.read_bytes() == (report / "dataset.csv").read_bytes()

    def test_train_awake_feature_equals_run(self, study_dir, tmp_path, monkeypatch):
        inputs = []  # the model input of each cross-validation
        cross_validate = models.cross_validate
        monkeypatch.setattr(models, "cross_validate",
                            lambda X, *a, **k: inputs.append(X) or cross_validate(X, *a, **k))
        model = ["--model", "logreg", "--folds", "2", "--seed", "7"]
        report = tmp_path / "report"
        assert main(["run", "--in", str(study_dir), "--report", str(report), *model,
                     "--awake-feature"]) == 0
        dataset = tmp_path / "dataset.csv"
        assert main(["features", "--in", str(study_dir), "--out", str(dataset),
                     "--seed", "7"]) == 0
        for flags, out in [(["--awake-feature"], "awake"), ([], "fractions")]:
            assert main(["train", "--in", str(dataset), "--out-dir", str(tmp_path / out),
                         *model, *flags]) == 0
        awake = (tmp_path / "awake" / "model_report.json").read_bytes()
        assert awake == (report / "model_report.json").read_bytes()
        run_X, train_X, fractions_X = inputs
        rows = read_csv_rows(dataset)[1:]
        assert fractions_X.tolist() == [[float(v) for v in row[1:5]] for row in rows]
        assert train_X.tolist() == [[float(v) for v in row[1:6]] for row in rows]
        assert run_X.tolist() == train_X.tolist()


# the PipelineConfig fields each subcommand's stages read
FIELDS_READ = {
    "validate": 2, "sleep": 6, "segment": 6, "changepoints": 13, "modes": 13,
    "features": 17, "train": 4, "run": 20, "eval": 0, "synth": 0,
}


def required_args(command: str, tmp_path: Path, source: Path | None = None) -> list[str]:
    """The required arguments of ``command`` reading ``source``, with its outputs under
    ``tmp_path``."""
    if command == "synth":
        return ["--profile", str(tmp_path / "p.json"), "--out", str(tmp_path / "s.csv")]
    args = ["--in", str(source or tmp_path / "in.csv")]
    if command == "run":
        return args + ["--report", str(tmp_path / "report")]
    if command == "train":
        return args + ["--out-dir", str(tmp_path / "models")]
    if command == "validate":
        return args
    return args + ["--out", str(tmp_path / "out")]


def accepted_fields(command: str, tmp_path: Path) -> set[str]:
    """The PipelineConfig fields whose flags ``command`` parses."""
    parser = build_parser()
    fields = set()
    for argv, name, _ in NON_DEFAULT_FLAGS:
        try:
            parser.parse_args([command, *required_args(command, tmp_path), *argv])
        except SystemExit:
            continue
        fields.add(name)
    return fields


def fields_read(monkeypatch, argv: list[str]) -> set[str]:
    """The PipelineConfig fields ``main(argv)`` reads after building its config."""
    reads: set[str] = set()
    names = {param.name for param in PARAMETERS}

    class ReadRecorder(PipelineConfig):
        def __post_init__(self):
            super().__post_init__()  # its range checks are not stage reads
            self._recording = True

        def __getattribute__(self, name):
            if name in names and object.__getattribute__(self, "__dict__").get("_recording"):
                reads.add(name)
            return object.__getattribute__(self, name)

    monkeypatch.setattr(cli, "PipelineConfig", ReadRecorder)
    assert main(argv) == 0
    return reads


class TestStageFlags:
    """Each subcommand takes the flags of the fields its stages read, and no others."""

    @pytest.mark.parametrize("command", [c for c in FIELDS_READ if c not in ("eval", "synth")])
    def test_flags_equal_fields_read(self, command, study_dir, tmp_path, monkeypatch):
        source, model = sorted(study_dir.glob("*.csv"))[0], []
        if command == "train":
            source, model = tmp_path / "dataset.csv", ["--model", "logreg", "--folds", "2"]
            assert main(["features", "--in", str(study_dir), "--out", str(source)]) == 0
        argv = [command, *required_args(command, tmp_path, source), *model]
        read = fields_read(monkeypatch, argv)
        assert accepted_fields(command, tmp_path) == read
        assert len(read) == FIELDS_READ[command]

    @pytest.mark.parametrize("command", FIELDS_READ)
    def test_foreign_flag_exits_2_before_any_output(self, command, tmp_path, capsys):
        accepted = accepted_fields(command, tmp_path)
        assert len(accepted) == FIELDS_READ[command]
        foreign = [argv for argv, name, _ in NON_DEFAULT_FLAGS if name not in accepted]
        assert len(foreign) == len(NON_DEFAULT_FLAGS) - FIELDS_READ[command]
        capsys.readouterr()
        for argv in foreign:
            with pytest.raises(SystemExit) as exc:
                main([command, *required_args(command, tmp_path), *argv])
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and argv[0] in err, err
            assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


SINGLE_RECORDING_COMMANDS = ["validate", "sleep", "segment", "changepoints", "modes"]


class TestSingleRecordingCommands:
    """The commands that report on one recording take exactly one CSV."""

    @pytest.mark.parametrize("command", SINGLE_RECORDING_COMMANDS)
    def test_directory_of_one_csv_reads_it(self, command, study_dir, tmp_path):
        recording = sorted(study_dir.glob("*.csv"))[0]
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / recording.name).write_bytes(recording.read_bytes())
        if command == "validate":
            assert main([command, "--in", str(alone)]) == 0
            return
        outs = [tmp_path / "from_dir", tmp_path / "from_file"]
        assert main([command, "--in", str(alone), "--out", str(outs[0])]) == 0
        assert main([command, "--in", str(recording), "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_roc_csv_cells_are_plain_numbers(study_dir, tmp_path):
    """Every roc.csv cell `run --model` and `train` write reads with float()."""
    report, trained = tmp_path / "report", tmp_path / "trained"
    model = ["--model", "logreg", "--folds", "2"]
    assert main(["run", "--in", str(study_dir), "--report", str(report), *model]) == 0
    assert main(["train", "--in", str(report / "dataset.csv"), "--out-dir", str(trained),
                 *model]) == 0
    for roc in (report / "roc.csv", trained / "roc.csv"):
        header, *rows = read_csv_rows(roc)
        assert header == ["fpr", "tpr"] and len(rows) > 2
        for row in rows:
            assert [0.0 <= float(cell) <= 1.0 for cell in row] == [True, True], row


class TestHeaderPadding:
    """A header field is stripped of ASCII whitespace only, as a cell is."""

    def test_ascii_padding_is_stripped(self, tmp_path):
        path = tmp_path / "day.csv"
        path.write_text(" timestamp\t,axis1 ,axis2,axis3,steps,\x0binclinometer\n" + EPOCH_ROW,
                        encoding="utf-8")
        assert main(["validate", "--in", str(path)]) == 0


class TestOneLabelRule:
    """Dataset and eval labels are lowercase, stripped of ASCII whitespace only."""

    def test_ascii_padding_is_stripped(self, tmp_path):
        rows = [DATASET_ROW.replace("good", " good\t"), DATASET_ROW.replace("good", "\tpoor ")]
        dataset = read_dataset_csv(io.StringIO(DATASET_HEADER + "".join(rows)))
        assert dataset.y.tolist() == [1, 0]
        reports = []
        for labels in (("good", "poor", "1"), (" good ", "\tpoor", "\v1 ")):
            scored = tmp_path / "scored.csv"
            scored.write_text("score,label\n" + "".join(
                f"{s},{label}\n" for s, label in zip((0.9, 0.2, 0.7), labels)
            ))
            out = tmp_path / "report.json"
            assert main(["eval", "--in", str(scored), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
