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
from .modes import mode_report_rows
from .models import evaluate
from .pipeline import (
    PipelineConfig,
    analyze_recording,
    load_series,
    pooled_dataset,
    run_pipeline,
    train_and_report,
)
from .reports import write_csv, write_json
from .segments import segment_manifest_rows
from .sleep import sleep_report
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


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--age", type=int, default=None, help="subject age in years")
    parser.add_argument("--scale-file", default=None, help="custom cut-point scale CSV")
    parser.add_argument(
        "--cut-axis", choices=["axis1", "vm3"], default="axis1",
        help="counts signal for cut points (default: vertical axis)",
    )
    parser.add_argument(
        "--signal", choices=["triaxial", "vm3"], default="triaxial",
        help="observation signal for change-point detection",
    )
    parser.add_argument(
        "--alpha-exp", type=_checked(float, lambda v: EnergyParams(alpha_exp=v)), default=1.0
    )
    parser.add_argument(
        "--min-segment", type=_checked(int, lambda v: EnergyParams(min_segment=v)), default=30
    )
    parser.add_argument(
        "--permutations", type=_checked(int, lambda v: PermutationConfig(n_permutations=v)),
        default=99,
    )
    parser.add_argument(
        "--significance", type=_checked(float, lambda v: PermutationConfig(significance=v)),
        default=0.01,
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--efficiency-threshold", type=float, default=0.85)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--model", choices=["logreg", "adaboost", "rf"], default=None)
    parser.add_argument(
        "--fill-gaps", choices=["sedentary-zero"], default=None,
        help="impute recording gaps with zero-count epochs (opt-in)",
    )
    parser.add_argument(
        "--features", choices=["modes", "raw"], default="modes", dest="features_mode",
        help="fraction source: smoothed mode intervals or raw epoch labels",
    )
    parser.add_argument("--min-awake-min", type=float, default=0.0)
    parser.add_argument("--min-sleep-min", type=int, default=0)
    parser.add_argument("--include-first-segment", action="store_true")
    parser.add_argument("--aggregate", type=int, default=1, metavar="FACTOR")
    parser.add_argument(
        "--mode-tie-break", choices=["lower", "higher"], default="lower",
        help="mode histogram ties go to this intensity",
    )
    parser.add_argument(
        "--awake-feature", action="store_true", dest="include_awake_feature",
        help="append awake minutes as a fifth model feature",
    )


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        age_years=args.age,
        scale_file=args.scale_file,
        cut_axis=args.cut_axis,
        cp_signal=args.signal,
        alpha_exp=args.alpha_exp,
        min_segment=args.min_segment,
        n_permutations=args.permutations,
        significance=args.significance,
        seed=args.seed,
        efficiency_threshold=args.efficiency_threshold,
        folds=args.folds,
        model=args.model,
        fill_gaps=args.fill_gaps,
        features_mode=args.features_mode,
        min_awake_min=args.min_awake_min,
        min_sleep_min=args.min_sleep_min,
        include_first_segment=args.include_first_segment,
        aggregate=args.aggregate,
        mode_tie_break=args.mode_tie_break,
        include_awake_feature=args.include_awake_feature,
    )


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


def _analyze_single(args: argparse.Namespace):
    config = _config_from_args(args)
    path = _collect_inputs(args.input)[0]
    series = load_series(path, config)
    return path, series, analyze_recording(path.stem, series, config), config


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


def cmd_sleep(args: argparse.Namespace) -> int:
    path, series, analysis, _ = _analyze_sleep_only(args)
    out = Path(args.out or f"{path.stem}.sleep.json")
    write_json(out, sleep_report(series, analysis["periods"], analysis["metrics"]))
    _log(f"wrote {out} ({len(analysis['periods'])} sleep period(s))")
    return 0


def _analyze_sleep_only(args: argparse.Namespace):
    # sleep/segment reports do not need change points; skip them for speed
    from .cutpoints import classify_series
    from .sleep import candidate_mask, compute_metrics, detect_sleep_periods

    config = _config_from_args(args)
    path = _collect_inputs(args.input)[0]
    series = load_series(path, config)
    intensity = classify_series(series, config.load_scale(), config.age_years, signal=config.cut_axis)
    mask = candidate_mask(series, config.candidate)
    rules = config.sleep_rules()
    periods = detect_sleep_periods(mask, rules)
    metrics = [compute_metrics(mask, intensity, p, rules, series.epoch_minutes) for p in periods]
    return path, series, {
        "intensity": intensity,
        "mask": mask,
        "periods": periods,
        "metrics": metrics,
    }, config


def cmd_segment(args: argparse.Namespace) -> int:
    from .segments import segment_sleep_wake

    path, series, analysis, _ = _analyze_sleep_only(args)
    segments = segment_sleep_wake(series, analysis["periods"], analysis["metrics"])
    out = Path(args.out or f"{path.stem}.segments.csv")
    write_csv(
        out,
        ["segment_id", "awake_start", "awake_end", "onset", "awakening", "efficiency", "flags"],
        segment_manifest_rows(segments, id_prefix=f"{path.stem}:"),
    )
    _log(f"wrote {out} ({len(segments)} segment(s))")
    return 0


def cmd_changepoints(args: argparse.Namespace) -> int:
    path, _, analysis, _ = _analyze_single(args)
    out = Path(args.out or f"{path.stem}.changepoints.csv")
    rows = []
    for k, cps in enumerate(analysis.change_points):
        for cp in cps:
            rows.append([f"{path.stem}:{k:03d}", cp.index, repr(cp.statistic), repr(cp.p_value)])
    write_csv(out, ["segment_id", "cp_index", "statistic", "p_value"], rows)
    _log(f"wrote {out} ({len(rows)} change point(s))")
    return 0


def cmd_modes(args: argparse.Namespace) -> int:
    path, _, analysis, _ = _analyze_single(args)
    out = Path(args.out or f"{path.stem}.modes.csv")
    rows = []
    for k, modes in enumerate(analysis.modes):
        rows.extend(mode_report_rows(f"{path.stem}:{k:03d}", modes))
    write_csv(out, ["segment_id", "start", "end", "mode"], rows)
    _log(f"wrote {out} ({len(rows)} mode interval(s))")
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    inputs = _collect_inputs(args.input)
    analyses = []
    for path in inputs:
        series = load_series(path, config)
        analyses.append(analyze_recording(path.stem, series, config))
    dataset = pooled_dataset(analyses, config)
    out = Path(args.out or "dataset.csv")
    from .features import write_dataset_csv

    with open(out, "w", newline="", encoding="utf-8") as fh:
        write_dataset_csv(dataset, fh)
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
    return result.exit_code


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

    for name, handler, help_text in [
        ("sleep", cmd_sleep, "detect sleep periods and write the JSON sleep report"),
        ("segment", cmd_segment, "write the sleep-wake segment manifest"),
        ("changepoints", cmd_changepoints, "write per-segment change points"),
        ("modes", cmd_modes, "write labeled activity-mode intervals"),
    ]:
        p = add(name, handler, help_text)
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
