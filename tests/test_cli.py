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
from rahar import cli, pipeline
from rahar.cli import _FLAGS, _config_from_args, build_parser, main
from rahar.features import read_dataset_csv
from rahar.pipeline import PipelineConfig
from rahar.synth import ActivityBlock, DayProfile, save_profile


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

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense,header\n1,2\n")
        assert main(["validate", "--in", str(bad)]) == 2

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

    def test_eval_bad_label(self, tmp_path):
        scored = tmp_path / "scored.csv"
        scored.write_text("score,label\n0.9,excellent\n")
        assert main(["eval", "--in", str(scored)]) == 2

    def test_train_exit_codes(self, tmp_path):
        # single-class dataset -> model failure exit code
        ds = tmp_path / "ds.csv"
        header = "segment_id,frac_sed,frac_light,frac_mod,frac_vig,awake_min,efficiency,label\n"
        rows = "".join(
            f"s{i},0.7,0.1,0.1,0.1,100.0,0.9,good\n" for i in range(10)
        )
        ds.write_text(header + rows)
        assert main(["train", "--in", str(ds), "--model", "logreg",
                     "--out-dir", str(tmp_path)]) == 5

    @pytest.mark.parametrize("poor_rows,folds", [(0, 2), (2, 3)])
    def test_train_model_failure_leaves_no_out_dir(self, tmp_path, capsys, poor_rows, folds):
        # one class only, or fewer poor rows than folds
        ds = tmp_path / "ds.csv"
        rows = [f"s{i},0.7,0.1,0.1,0.1,100.0,0.9,good\n" for i in range(10)]
        rows += [f"p{i},0.1,0.7,0.1,0.1,100.0,0.5,poor\n" for i in range(poor_rows)]
        ds.write_text(DATASET_HEADER + "".join(rows))
        out_dir = tmp_path / "models"
        assert main(["train", "--in", str(ds), "--model", "rf", "--folds", str(folds),
                     "--out-dir", str(out_dir)]) == 5
        assert capsys.readouterr().err.startswith("model failure: ")
        assert not out_dir.exists()

    def test_missing_input_file(self, tmp_path):
        assert main(["sleep", "--in", str(tmp_path / "nope.csv")]) == 2


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


BAD_CHANGEPOINT_FLAGS = [
    ("--permutations", "0"),
    ("--min-segment", "1"),
    ("--significance", "0"),
    ("--significance", "1.5"),
    ("--significance", "nan"),
    ("--alpha-exp", "0"),
    ("--alpha-exp", "2"),
    ("--folds", "1"),
    ("--efficiency-threshold", "7"),
    ("--efficiency-threshold", "0"),
    ("--aggregate", "0"),
    ("--seed", "-1"),
    ("--min-awake-min", "nan"),
    ("--min-awake-min", "-1"),
    ("--min-sleep-min", "-1"),
]


def run_cli_subprocess(*args: str, prelude: str = "") -> subprocess.CompletedProcess:
    """``python -c`` with the package under test importable, after ``prelude``."""
    src = str(Path(rahar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"{prelude}\nimport sys\nfrom rahar.cli import main\nsys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestBadFlags:
    @pytest.mark.parametrize("flag,value", BAD_CHANGEPOINT_FLAGS)
    def test_rejected_before_any_output(self, study_dir, tmp_path, capsys, flag, value):
        report = tmp_path / "report"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--in", str(study_dir), "--report", str(report), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert "Traceback" not in err
        assert not report.exists()

    def test_train_rejects_one_fold_before_any_output(self, tmp_path, capsys):
        out_dir = tmp_path / "models"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--in", str(tmp_path / "ds.csv"), "--model", "logreg",
                  "--folds", "1", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--folds" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command,out_flag,seed", [
        ("run", "--report", "-1"), ("train", "--out-dir", "-2"),
    ])
    def test_negative_seed_with_a_model_rejected_before_any_output(
        self, study_dir, tmp_path, capsys, command, out_flag, seed
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--in", str(study_dir), out_flag, str(out), "--model", "rf",
                  "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_eval_rejects_a_non_finite_threshold_before_any_output(self, tmp_path, capsys, value):
        scored = tmp_path / "scored.csv"
        scored.write_text("score,label\n0.9,good\n0.2,poor\n")
        out = tmp_path / "report.json"
        assert main(["eval", "--in", str(scored), "--out", str(out), "--threshold", value]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: --threshold must be a finite number, got {value}\n"
        assert not out.exists()

    def test_exit_code_and_single_line_from_the_command(self, study_dir, tmp_path):
        report = tmp_path / "report"
        proc = run_cli_subprocess("run", "--in", str(study_dir), "--report", str(report),
                                  "--permutations", "0")
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "rahar run: error: argument --permutations: n_permutations must be >= 1, got 0"
        ]
        assert not report.exists()


def test_cli_imports_without_scipy():
    proc = run_cli_subprocess("--version", prelude="import sys\nsys.modules['scipy'] = None")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rahar ")


class TestNaiveTimestamps:
    @pytest.fixture
    def mixed_file(self, study_dir, tmp_path):
        """A recording whose 11th row lost its UTC offset."""
        lines = sorted(study_dir.glob("*.csv"))[0].read_text().splitlines()
        stamp, rest = lines[11].split(",", 1)
        lines[11] = f"{stamp[:19]},{rest}"
        path = tmp_path / "mixed.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_validate_exits_2_with_one_line(self, mixed_file, capsys):
        assert main(["validate", "--in", str(mixed_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 12" in err and "UTC offset" in err
        assert "Traceback" not in err

    def test_run_exits_2_and_leaves_no_report(self, mixed_file, tmp_path, capsys):
        report = tmp_path / "report"
        assert main(["run", "--in", str(mixed_file), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not report.exists()


class TestCountCeiling:
    @pytest.fixture
    def huge_file(self, tmp_path):
        """Two rows, the second with an axis1 count no int64 column can hold."""
        path = tmp_path / "huge.csv"
        path.write_text(
            "timestamp,axis1,axis2,axis3,steps,inclinometer\n"
            "2014-09-01T22:00:00+03:00,0,0,0,0,off\n"
            "2014-09-01T22:01:00+03:00,99999999999999999999999,0,0,0,off\n"
        )
        return path

    def test_validate_exits_2_with_one_line(self, huge_file, capsys):
        assert main(["validate", "--in", str(huge_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 3" in err and "ceiling" in err
        assert "Traceback" not in err

    def test_run_exits_2_and_leaves_no_report(self, huge_file, tmp_path, capsys):
        report = tmp_path / "report"
        assert main(["run", "--in", str(huge_file), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not report.exists()


class TestInputFaultsAfterParse:
    def test_multiline_record_error_names_physical_line(self, tmp_path, capsys):
        path = tmp_path / "multiline.csv"
        path.write_text(
            "timestamp,axis1,axis2,axis3,steps,inclinometer\n"
            '2014-09-01T22:00:00+03:00,"0\n",0,0,0,off\n'
            "2014-09-01T22:01:00+03:00,x,0,0,0,off\n"
        )
        assert main(["validate", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "parse error: line 4: axis1 'x' is not an integer\n"

    @pytest.fixture
    def century_file(self, tmp_path):
        """Two rows a century apart: filling would insert 52.6 million epochs."""
        path = tmp_path / "century.csv"
        path.write_text(
            "timestamp,axis1,axis2,axis3,steps,inclinometer\n"
            "1914-09-01T22:00:00+03:00,0,0,0,0,off\n"
            "2014-09-01T22:01:00+03:00,0,0,0,0,off\n"
        )
        return path

    def test_validate_refuses_huge_gap_fill(self, century_file, capsys):
        args = ["validate", "--in", str(century_file), "--fill-gaps", "sedentary-zero"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "gap filling" in err and "Traceback" not in err

    def test_run_refuses_huge_gap_fill_and_leaves_no_report(self, century_file, tmp_path, capsys):
        report = tmp_path / "report"
        args = ["run", "--in", str(century_file), "--fill-gaps", "sedentary-zero"]
        assert main(args + ["--report", str(report)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not report.exists()


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
        # and the flag table holds no flag outside that list
        flags = {flag for flag, _ in _FLAGS.values()}
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
        cross_validate = pipeline.cross_validate
        monkeypatch.setattr(pipeline, "cross_validate",
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

    class ReadRecorder(PipelineConfig):
        def __post_init__(self):
            super().__post_init__()  # its range checks are not stage reads
            self._recording = True

        def __getattribute__(self, name):
            if name in _FLAGS and object.__getattribute__(self, "__dict__").get("_recording"):
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


DATASET_HEADER = "segment_id,frac_sed,frac_light,frac_mod,frac_vig,awake_min,efficiency,label\n"
DATASET_ROW = "s0,0.7,0.1,0.1,0.1,100.0,0.9,good\n"


class TestBadTablesExit2:
    """`train` and `eval` report a bad file in one line naming its physical line."""

    @pytest.mark.parametrize("text,message", [
        ("segment_id,label\n" + DATASET_ROW, "parse error: bad dataset header"),
        (DATASET_HEADER + DATASET_ROW + DATASET_ROW.replace("good", "meh"),
         "parse error: line 3: label 'meh' is not good or poor"),
        (DATASET_HEADER + DATASET_ROW + "s1,0.7,0.1\n",
         "parse error: line 3: expected 8 fields, got 3"),
        # a quoted id spanning two lines: the bad row starts on line 4
        (DATASET_HEADER + '"s\n0",0.7,0.1,0.1,0.1,100.0,0.9,good\n'
         + DATASET_ROW.replace("0.9", "x"),
         "parse error: line 4: bad efficiency 'x'"),
        (DATASET_HEADER + DATASET_ROW + DATASET_ROW.replace("0.7", "nan"),
         "parse error: line 3: frac_sed 'nan' is not a finite number"),
        (DATASET_HEADER + DATASET_ROW.replace("100.0", "inf"),
         "parse error: line 2: awake_min 'inf' is not a finite number"),
        # fractions and efficiency lie in [0, 1], awake minutes at or above 0
        (DATASET_HEADER + DATASET_ROW + DATASET_ROW.replace("0.7", "1e308"),
         "parse error: line 3: frac_sed '1e308' is outside [0, 1]"),
        (DATASET_HEADER + DATASET_ROW.replace("0.1,0.1,0.1", "-1e308,0.1,0.1"),
         "parse error: line 2: frac_light '-1e308' is outside [0, 1]"),
        (DATASET_HEADER + DATASET_ROW.replace("0.9", "1.5"),
         "parse error: line 2: efficiency '1.5' is outside [0, 1]"),
        (DATASET_HEADER + DATASET_ROW.replace("100.0", "-1"),
         "parse error: line 2: awake_min '-1' is outside [0, inf]"),
        ("", "parse error: bad dataset header None, expected segment_id,"),
    ])
    def test_train(self, tmp_path, capsys, text, message):
        dataset = tmp_path / "ds.csv"
        dataset.write_text(text)
        out_dir = tmp_path / "models"
        assert main(["train", "--in", str(dataset), "--model", "logreg",
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(message), err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text,message", [
        ("score,label\n0.9,good\n0.4\n", "parse error: line 3: expected 2 fields, got 1"),
        ("score,label\n0.9,excellent\n", "parse error: line 2: label must be good/poor or 0/1"),
        ("score,label\nhigh,good\n", "parse error: line 2: bad score 'high'"),
        ("score,label\n0.9,good\nnan,good\n",
         "parse error: line 3: score 'nan' is not a finite number"),
        ("score,label\ninf,good\n0.2,poor\n",
         "parse error: line 2: score 'inf' is not a finite number"),
        ("", "parse error: bad eval header None, expected score,label"),
        ("score,label\n0.9,good,x\n", "parse error: line 2: expected 2 fields, got 3"),
    ])
    def test_eval(self, tmp_path, capsys, text, message):
        scored = tmp_path / "scored.csv"
        scored.write_text(text)
        out = tmp_path / "report.json"
        assert main(["eval", "--in", str(scored), "--out", str(out)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()


class TestRunLeavesNoReportOnBadConfig:
    """The scale and the age band resolve while recordings are analysed, before
    the report directory exists."""

    @pytest.mark.parametrize(
        "case,code",
        [("bad-bounds", 3), ("missing-scale", 2), ("no-age-band", 3), ("overlong-field", 3)],
    )
    def test_no_report_directory(self, study_dir, tmp_path, capsys, case, code):
        scale_file = tmp_path / "scale.csv"
        scale_file.write_text(
            "age_min,age_max,sedentary_max,light_max,moderate_max\n0,130,500,100,2000\n"
        )
        # a field over csv.field_size_limit(), 131,072 characters by default
        long_scale = tmp_path / "long_scale.csv"
        long_scale.write_text(
            "age_min,age_max,sedentary_max,light_max,moderate_max\n0,130,99,2019,"
            + "1" * 200_000 + "\n"
        )
        flags = {
            "bad-bounds": ["--scale-file", str(scale_file)],
            "overlong-field": ["--scale-file", str(long_scale)],
            "missing-scale": ["--scale-file", str(tmp_path / "missing.csv")],
            "no-age-band": ["--age", "3"],
        }[case]
        report = tmp_path / "report"
        assert main(["run", "--in", str(study_dir), "--report", str(report), *flags]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not report.exists()


SINGLE_RECORDING_COMMANDS = ["validate", "sleep", "segment", "changepoints", "modes"]


class TestSingleRecordingCommands:
    """The commands that report on one recording take exactly one CSV."""

    @pytest.mark.parametrize("command", SINGLE_RECORDING_COMMANDS)
    def test_directory_of_two_csvs_exits_2_and_writes_nothing(
        self, command, study_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # where a report without --out would go
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--in", str(study_dir)]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: {study_dir} holds 2 .csv files; this command reads one\n"
        assert sorted(tmp_path.rglob("*")) == before

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


class TestLoadFailureNamesTheFile:
    """A file that fails to load is named in the one-line message; every
    file loads before any is analysed, so `run` and `features` agree."""

    @pytest.fixture
    def one_bad_file(self, study_dir):
        bad = sorted(study_dir.glob("*.csv"))[1]
        lines = bad.read_text().splitlines()
        lines[1] = "not-a-time," + lines[1].split(",", 1)[1]
        bad.write_text("\n".join(lines) + "\n")
        return study_dir

    @pytest.mark.parametrize("command,out_flag", [("run", "--report"), ("features", "--out")])
    def test_parse_failure_names_the_file(self, command, out_flag, one_bad_file, tmp_path, capsys):
        out = tmp_path / "out"
        # the bad age would fail the analysis, which must not start
        args = [command, "--in", str(one_bad_file), out_flag, str(out), "--age", "200"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "parse error: subj1.csv: line 2: bad timestamp 'not-a-time'\n"
        assert not out.exists()

    def test_validation_failure_names_the_file(self, study_dir, tmp_path, capsys):
        gappy = sorted(study_dir.glob("*.csv"))[0]
        lines = gappy.read_text().splitlines()
        gappy.write_text("\n".join(lines[:200] + lines[230:]) + "\n")
        report = tmp_path / "report"
        assert main(["run", "--in", str(study_dir), "--report", str(report)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation failure: subj0.csv: 1 gap(s): ") and err.count("\n") == 1
        assert not report.exists()

    def test_config_failure_names_no_file(self, study_dir, tmp_path, capsys):
        report = tmp_path / "report"
        assert main(["run", "--in", str(study_dir), "--report", str(report), "--age", "200"]) == 3
        err = capsys.readouterr().err
        assert err == "validation failure: scale 'troiano-2008' has no band for age 200\n"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_file_that_is_not_utf8_exits_2_with_one_line(command, tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"timestamp,axis1,axis2,axis3,steps,inclinometer\n"
                     b"2014-09-01T22:00:00+03:00,0,0,0,0,\xe9t\xe9\n")
    report = tmp_path / "report"
    args = [command, "--in", str(path)] + (["--report", str(report)] if command == "run" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: 'utf-8' codec can't decode") and err.count("\n") == 1
    assert not report.exists()


MEAN_COUNTS_RULE = "mean_counts must be three numbers from 0 to the count ceiling of 1000000000"


class TestBadProfileExit2:
    """`synth` rejects a profile value it cannot draw from, in one line,
    before it writes the CSV."""

    @pytest.mark.parametrize("field,value,message", [
        ("dispersion", "1e400", "dispersion must be finite and positive, got inf"),
        ("mean_counts", "[NaN, 1, 1]", MEAN_COUNTS_RULE),
        ("mean_counts", "[1e300, 1, 1]", MEAN_COUNTS_RULE),
        ("mean_steps", "-5", "mean_steps must be from 0 to the count ceiling of 1000000000"),
        ("mean_counts", "[1, 1]", MEAN_COUNTS_RULE),
        ("mean_counts", "[1, 1, 1, 1]", MEAN_COUNTS_RULE),
        # numpy cannot draw at so small a dispersion; JSON keeps the last key
        ("dispersion", "1e-300", "dispersion 1e-300 is too small for mean 700.0"),
        ("duration_min", "1.5", "bad profile payload: expected a whole number, got 1.5"),
        ("dispersoin", "5", "unknown block key(s) ['dispersoin'], expected ['dispersion', "),
    ])
    def test_rejected_before_the_csv(self, tmp_path, capsys, field, value, message):
        profile = tmp_path / "p.json"
        profile.write_text(
            f'{{"schedule": [{{"mode": "light", "duration_min": 60, "{field}": {value}}}]}}'
        )
        out = tmp_path / "s.csv"
        assert main(["synth", "--profile", str(profile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"profile error: {message}") and err.count("\n") == 1, err
        assert not out.exists()

    def test_subject_is_rejected_for_age(self, tmp_path, capsys):
        # the age is a run parameter (--age): a recording cannot carry one
        profile = tmp_path / "p.json"
        profile.write_text('{"subject": {"age_years": 10}, '
                           '"schedule": [{"mode": "light", "duration_min": 60}]}')
        out = tmp_path / "s.csv"
        assert main(["synth", "--profile", str(profile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("profile error: unknown profile key(s) ['subject']"), err
        assert err.endswith("; the subject's age is set with --age\n") and err.count("\n") == 1
        assert not out.exists()


def test_run_with_an_empty_dataset_leaves_no_report(tmp_path, capsys):
    # three awake epochs hold no sleep, so no segment reaches the dataset
    recording = tmp_path / "day.csv"
    recording.write_text(
        "timestamp,axis1,axis2,axis3,steps,inclinometer\n"
        + "".join(f"2014-09-01T22:0{m}:00+00:00,5,0,0,0,sitting\n" for m in range(3))
    )
    report = tmp_path / "report"
    assert main(["run", "--in", str(recording), "--report", str(report)]) == 4
    assert capsys.readouterr().err == "empty dataset: all segments were filtered out\n"
    assert not report.exists()


def test_run_with_a_model_failure_leaves_no_report(tmp_path, capsys):
    # the first sleep is not scored and the second is good: one row, one class
    profile = DayProfile(
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
    )
    save_profile(profile, tmp_path / "day.json")
    recording = tmp_path / "day.csv"
    assert main(["synth", "--profile", str(tmp_path / "day.json"), "--out", str(recording)]) == 0
    capsys.readouterr()
    report = tmp_path / "report"
    assert main(["run", "--in", str(recording), "--report", str(report), "--model", "logreg"]) == 5
    assert capsys.readouterr().err == "model failure: class 1 has 1 members, fewer than 5 folds\n"
    assert not report.exists()


class TestOneLineFailures:
    """Inputs that once ended in a traceback or a second line on stderr."""

    def test_field_over_the_csv_size_limit(self, tmp_path, capsys):
        path = tmp_path / "day.csv"
        path.write_text("timestamp,axis1,axis2,axis3,steps,inclinometer\n"
                        "2014-09-01T22:00:00+00:00,5,0,0,0," + "x" * 200_000 + "\n")
        assert main(["validate", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "parse error: line 2: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("flag,message", [
        # argparse reads "--seed=--" as an empty list and skips the type
        ("--seed=--", "rahar: error: an option was given '--' as its value"),
        ("--aggregate=99999999999999999999", "aggregate must be in [1, 1439999999999]"),
        ("--out=x\ny", r"unrecognized arguments: --out=x\ny"),
    ])
    def test_bad_flag(self, study_dir, tmp_path, capsys, flag, message):
        report = tmp_path / "report"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--in", str(study_dir), "--report", str(report), flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert not report.exists()


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


class TestNumbersAreAscii:
    """`int()` and `float()` alone read `1_0` as 10 and Arabic-Indic `١٢` as 12;
    every input table takes its numbers in plain ASCII only."""

    @pytest.mark.parametrize("token", [
        "1_0", "١٢", "+5", "-0",
        pytest.param("9" * 5000, id="5000-digits"), pytest.param("-" + "9" * 5000, id="-5000-digits"),
        # only ASCII whitespace pads a cell: no-break and ideographic spaces do not
        pytest.param("\u00a05\u3000", id="non-ascii-padding"),
    ])
    def test_epoch_count(self, tmp_path, capsys, token):
        path = tmp_path / "day.csv"
        path.write_text("timestamp,axis1,axis2,axis3,steps,inclinometer\n"
                        "2014-09-01T22:00:00+00:00,0,0,0,0,off\n"
                        f"2014-09-01T22:01:00+00:00,{token},0,0,0,off\n", encoding="utf-8")
        assert main(["validate", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: line 3: axis1 {token!r} is not an integer\n"

    @pytest.mark.parametrize("token", ["0_7", "٠.٧"])
    def test_dataset_number(self, tmp_path, capsys, token):
        dataset = tmp_path / "ds.csv"
        dataset.write_text(DATASET_HEADER + DATASET_ROW.replace("0.7", token), encoding="utf-8")
        out_dir = tmp_path / "models"
        assert main(["train", "--in", str(dataset), "--model", "logreg",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"parse error: line 2: bad frac_sed {token!r}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("token", ["0_9", "٠.٩"])
    def test_eval_score(self, tmp_path, capsys, token):
        scored = tmp_path / "scored.csv"
        scored.write_text(f"score,label\n{token},good\n0.2,poor\n", encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["eval", "--in", str(scored), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"parse error: line 2: bad score {token!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("row", [
        "1_0,130,99,2019,5998", "٠,130,99,2019,5998", "+0,130,99,2019,5998",
        "0,130,9_9,2019,5998", "0,130,99,٢٠١٩,5998", "\u00a00,130,99,2019,5998",
        "0,130,\u00a099,2019,5998",
    ])
    def test_scale_number(self, study_dir, tmp_path, capsys, row):
        scale = tmp_path / "scale.csv"
        scale.write_text(
            "age_min,age_max,sedentary_max,light_max,moderate_max\n" + row + "\n", encoding="utf-8"
        )
        recording = sorted(study_dir.glob("*.csv"))[0]
        out = tmp_path / "sleep.json"
        assert main(["sleep", "--in", str(recording), "--scale-file", str(scale),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation failure: line 2: scale row ") and err.count("\n") == 1
        assert "is not a plain ASCII number" in err, err
        assert not out.exists()


class TestHeaderPadding:
    """A header field is stripped of ASCII whitespace only, as a cell is."""

    EPOCH_ROW = "2014-09-01T22:00:00+00:00,0,0,0,0,off\n"

    @pytest.mark.parametrize("pad", ["\u00a0", "\u3000"])
    def test_epoch_header(self, tmp_path, capsys, pad):
        path = tmp_path / "day.csv"
        path.write_text(f"timestamp{pad},axis1,axis2,axis3,steps,inclinometer\n" + self.EPOCH_ROW,
                        encoding="utf-8")
        assert main(["validate", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: bad header ") and err.count("\n") == 1

    def test_eval_header(self, tmp_path, capsys):
        scored = tmp_path / "scored.csv"
        scored.write_text("score\u00a0,label\n0.9,good\n0.2,poor\n", encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["eval", "--in", str(scored), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: bad eval header ") and err.count("\n") == 1
        assert not out.exists()

    def test_ascii_padding_is_stripped(self, tmp_path):
        path = tmp_path / "day.csv"
        path.write_text(" timestamp\t,axis1 ,axis2,axis3,steps,\x0binclinometer\n" + self.EPOCH_ROW,
                        encoding="utf-8")
        assert main(["validate", "--in", str(path)]) == 0


class TestOneLabelRule:
    """Dataset and eval labels are lowercase, stripped of ASCII whitespace only."""

    @pytest.mark.parametrize("token", ["GOOD", "Poor", "\u00a0good", "poor\u3000"])
    def test_train_rejects(self, tmp_path, capsys, token):
        dataset = tmp_path / "ds.csv"
        dataset.write_text(DATASET_HEADER + DATASET_ROW.replace("good", token), encoding="utf-8")
        out_dir = tmp_path / "models"
        assert main(["train", "--in", str(dataset), "--model", "logreg",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"parse error: line 2: label {token!r} is not good or poor\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("token", ["GOOD", "Poor", "\u00a0good", "poor\u3000", "\u00a01"])
    def test_eval_rejects(self, tmp_path, capsys, token):
        scored = tmp_path / "scored.csv"
        scored.write_text(f"score,label\n0.9,{token}\n0.2,poor\n", encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["eval", "--in", str(scored), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "parse error: line 2: label must be good/poor or 0/1\n"
        assert not out.exists()

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
