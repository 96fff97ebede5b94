"""Command-line interface for the rahar pipeline.

Subcommands mirror the pipeline stages (validate, sleep, segment,
changepoints, modes, features), plus train/eval for modeling, run for
the whole batch pipeline, and synth for synthetic recordings.  Logs go
to standard error; data goes to files only.  Exit codes: 2 parse
failure or bad command line, 3 validation failure, 4 empty dataset,
5 model failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .changepoint import EnergyParams, PermutationConfig
from .errors import (
    EmptyDataset,
    InvalidProfile,
    ModelError,
    ParseError,
    RaharError,
    ValidationError,
)
from .features import read_dataset_csv
from .ingest import fill_gaps, find_gaps, parse_epoch_csv, serialize_epoch_csv, validate_series
from .models import evaluate
from .pipeline import (
    PipelineConfig,
    analyze_recording,
    analyze_sleep,
    load_series,
    pooled_dataset,
    run_pipeline,
    train_and_report,
    write_dataset,
    write_report,
)
from .reports import write_json
from .synth import generate, load_profile

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EMPTY_DATASET = 4
EXIT_MODEL = 5


def _log(message: str) -> None:
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, without the usage block."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _checked(cast, check):
    """argparse type: ``cast`` the text, then let ``check`` (a constructor of
    the config class that owns the bound) reject the value with its message."""

    def parse(text: str):
        value = cast(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


# every PipelineConfig field but ``candidate`` has one flag, whose dest is the field name
_CONFIG_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig) if f.name != "candidate"]


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--age", dest="age_years", type=int, metavar="AGE", help="subject age in years"
    )
    parser.add_argument("--scale-file", help="custom cut-point scale CSV")
    parser.add_argument(
        "--cut-axis", choices=["axis1", "vm3"],
        help="counts signal for cut points (default: vertical axis)",
    )
    parser.add_argument(
        "--signal", dest="cp_signal", choices=["triaxial", "vm3"],
        help="observation signal for change-point detection",
    )
    parser.add_argument("--alpha-exp", type=_checked(float, lambda v: EnergyParams(alpha_exp=v)))
    parser.add_argument("--min-segment", type=_checked(int, lambda v: EnergyParams(min_segment=v)))
    parser.add_argument(
        "--permutations", dest="n_permutations", metavar="PERMUTATIONS",
        type=_checked(int, lambda v: PermutationConfig(n_permutations=v)),
    )
    parser.add_argument(
        "--significance", type=_checked(float, lambda v: PermutationConfig(significance=v))
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--efficiency-threshold",
        type=_checked(float, lambda v: PipelineConfig(efficiency_threshold=v)),
    )
    parser.add_argument("--folds", type=_checked(int, lambda v: PipelineConfig(folds=v)))
    parser.add_argument("--model", choices=["logreg", "adaboost", "rf"])
    parser.add_argument(
        "--fill-gaps", choices=["sedentary-zero"],
        help="impute recording gaps with zero-count epochs (opt-in)",
    )
    parser.add_argument(
        "--features", choices=["modes", "raw"], dest="features_mode",
        help="fraction source: smoothed mode intervals or raw epoch labels",
    )
    parser.add_argument("--min-awake-min", type=float)
    parser.add_argument("--min-sleep-min", type=int)
    parser.add_argument("--include-first-segment", action="store_true")
    parser.add_argument(
        "--aggregate", type=_checked(int, lambda v: PipelineConfig(aggregate=v)), metavar="FACTOR"
    )
    parser.add_argument(
        "--mode-tie-break", choices=["lower", "higher"],
        help="mode histogram ties go to this intensity",
    )
    parser.add_argument(
        "--awake-feature", action="store_true", dest="include_awake_feature",
        help="append awake minutes as a fifth model feature",
    )
    defaults = PipelineConfig()
    parser.set_defaults(**{name: getattr(defaults, name) for name in _CONFIG_FIELDS})


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(**{name: getattr(args, name) for name in _CONFIG_FIELDS})


def _collect_inputs(path: str) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.csv"))
        if not files:
            raise ParseError(f"no .csv files in {p}")
        return files
    if not p.exists():
        raise ParseError(f"input {p} does not exist")
    return [p]


def cmd_validate(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        series = parse_epoch_csv(fh)
    gaps = find_gaps(series)
    if gaps:
        if args.fill_gaps != "sedentary-zero":
            for g in gaps:
                _log(f"gap: {g.length} epoch(s) missing from {g.start.isoformat()}")
            _log(f"{args.input}: INVALID ({len(gaps)} gap(s))")
            return EXIT_VALIDATION
        series, inserted = fill_gaps(series)
        _log(f"filled {inserted} missing epoch(s) with sedentary-zero records")
    validate_series(series)
    _log(f"{args.input}: OK ({len(series)} epochs)")
    return 0


def _report_command(suffix: str, noun: str, stage):
    """Handler that runs ``stage`` on one recording and writes its ``suffix`` report."""

    def handler(args: argparse.Namespace) -> int:
        config = _config_from_args(args)
        path = _collect_inputs(args.input)[0]
        analysis = stage(path.stem, load_series(path, config), config)
        out = Path(args.out or f"{path.stem}.{suffix}")
        count = write_report(suffix, analysis, out)
        _log(f"wrote {out} ({count} {noun})")
        return 0

    return handler


def cmd_features(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    analyses = [
        analyze_recording(path.stem, load_series(path, config), config)
        for path in _collect_inputs(args.input)
    ]
    dataset = pooled_dataset(analyses, config)
    out = Path(args.out or "dataset.csv")
    write_dataset(dataset, out)
    _log(f"wrote {out} ({len(dataset)} row(s))")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.model:
        raise ModelError("train requires --model")
    with open(args.input, encoding="utf-8") as fh:
        dataset = read_dataset_csv(fh, include_awake_feature=config.include_awake_feature)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = train_and_report(dataset, out_dir, config)
    for p in paths:
        _log(f"wrote {p}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    token_map = {"good": 1, "poor": 0, "1": 1, "0": 0}
    scores, labels = [], []
    with open(args.input, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["score", "label"]:
            raise ParseError(f"bad eval header {header!r}, expected score,label")
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            token = row[1].strip()
            if token not in token_map:
                raise ParseError(f"line {line_number}: label must be good/poor or 0/1")
            try:
                scores.append(float(row[0]))
            except ValueError:
                raise ParseError(f"line {line_number}: bad score {row[0]!r}")
            labels.append(token_map[token])
    report = evaluate(scores, labels, class_threshold=args.threshold)
    out = Path(args.out or "eval_report.json")
    write_json(out, {**report.summary(), "roc_points": [[f, t] for f, t in report.roc_points]})
    _log(f"wrote {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    inputs = _collect_inputs(args.input)
    result = run_pipeline(inputs, Path(args.report), config)
    _log(f"wrote {len(result.output_files)} output file(s) + {result.manifest_path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    profile = load_profile(args.profile)
    series, truth = generate(profile)
    out = Path(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        serialize_epoch_csv(series, fh)
    _log(f"wrote {out} ({len(series)} epochs)")
    if args.truth:
        write_json(
            Path(args.truth),
            {
                "periods": [
                    {
                        "onset_index": p.onset_index,
                        "awakening_index": p.awakening_index,
                        "truncated": p.truncated,
                    }
                    for p in truth.periods
                ],
                "change_points": truth.change_points,
                "mode_schedule": [
                    {"start": s, "end": e, "mode": m} for s, e, m in truth.mode_schedule
                ],
            },
        )
        _log(f"wrote {args.truth}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rahar",
        description="Actigraphy sleep analytics: sleep detection, activity modes, sleep-quality models.",
    )
    parser.add_argument("--version", action="version", version=f"rahar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, needs_common: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_common:
            _add_common_options(p)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", cmd_validate, "check an epoch CSV for grid gaps and ordering")
    p.add_argument("--in", dest="input", required=True)

    # sleep and segment reports need no change points, so they run the sleep stage only
    for name, suffix, noun, stage, help_text in [
        ("sleep", "sleep.json", "sleep period(s)", analyze_sleep,
         "detect sleep periods and write the JSON sleep report"),
        ("segment", "segments.csv", "segment(s)", analyze_sleep,
         "write the sleep-wake segment manifest"),
        ("changepoints", "changepoints.csv", "change point(s)", analyze_recording,
         "write per-segment change points"),
        ("modes", "modes.csv", "mode interval(s)", analyze_recording,
         "write labeled activity-mode intervals"),
    ]:
        p = add(name, _report_command(suffix, noun, stage), help_text)
        p.add_argument("--in", dest="input", required=True)
        p.add_argument("--out", default=None)

    p = add("features", cmd_features, "build the model dataset from recordings")
    p.add_argument("--in", dest="input", required=True, help="epoch CSV or directory of CSVs")
    p.add_argument("--out", default=None)

    p = add("train", cmd_train, "cross-validate a model on a dataset CSV")
    p.add_argument("--in", dest="input", required=True, help="dataset.csv from `features`")
    p.add_argument("--out-dir", default=".")

    p = add("eval", cmd_eval, "evaluate a score,label CSV", needs_common=False)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threshold", type=float, default=0.5)

    p = add("run", cmd_run, "run the full pipeline and write all reports")
    p.add_argument("--in", dest="input", required=True, help="epoch CSV or directory of CSVs")
    p.add_argument("--report", required=True, help="output directory")

    p = add("synth", cmd_synth, "generate a synthetic recording", needs_common=False)
    p.add_argument("--profile", required=True, help="day profile JSON")
    p.add_argument("--out", required=True, help="epoch CSV to write")
    p.add_argument("--truth", default=None, help="optional ground-truth JSON to write")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        _log(f"parse error: {exc}")
        return EXIT_PARSE
    except InvalidProfile as exc:
        _log(f"profile error: {exc}")
        return EXIT_PARSE
    except (json.JSONDecodeError, OSError) as exc:
        _log(f"input error: {exc}")
        return EXIT_PARSE
    except EmptyDataset as exc:
        _log(f"empty dataset: {exc}")
        return EXIT_EMPTY_DATASET
    except ModelError as exc:
        _log(f"model failure: {exc}")
        return EXIT_MODEL
    except (ValidationError, RaharError) as exc:
        _log(f"validation failure: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
