"""Command-line interface for the rahar pipeline.

Subcommands mirror the pipeline stages (validate, sleep, segment,
changepoints, modes, features), plus train/eval for modeling, run for
the whole batch pipeline, and synth for synthetic recordings.  Logs go
to standard error; data goes to files only.  Exit codes: 1 a worker
process died, 2 parse failure or bad command line, 3 validation failure,
4 empty dataset, 5 model failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import (
    EmptyDataset,
    InvalidProfile,
    ModelError,
    ParseError,
    RaharError,
    ValidationError,
    WorkerLost,
)
from .features import finite_cell, read_dataset_csv
from .ingest import label_cell, read_table, serialize_epoch_csv
from .models import evaluate
from .pipeline import (
    CHOICES,
    STAGE_FIELDS,
    PipelineConfig,
    analyze_inputs,
    find_inputs,
    load_series,
    pooled_dataset,
    run_pipeline,
    train_and_report,
    write_dataset,
    write_report,
)
from .reports import write_json
from .synth import generate, load_profile
from .workers import worker_map

EXIT_WORKER = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EMPTY_DATASET = 4
EXIT_MODEL = 5


def _log(message: str) -> None:
    """One line on stderr: a path or value that holds a line break is escaped."""
    print(message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line, without the usage block."""

    def error(self, message):
        _log(f"{self.prog}: error: {message}")
        self.exit(EXIT_PARSE)


def _checked(cast, name: str):
    """argparse type: ``cast`` the text, then let PipelineConfig reject the
    value of its field ``name`` with its message."""

    def parse(text: str):
        value = cast(text)
        try:
            PipelineConfig(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


# One flag per PipelineConfig field but ``candidate``, keyed by the field,
# which is also the flag's dest, and in --help order.  A subcommand adds the
# flags of the fields its stages read (``STAGE_FIELDS``), so a flag no stage
# of it reads is a bad command line.  PipelineConfig checks every value:
# ``CHOICES`` gives an enumerated flag its choices, and a typed flag's value
# goes through ``_checked``.
_FLAGS: dict[str, tuple[str, dict]] = {
    "age_years": ("--age", dict(type=int, metavar="AGE", help="subject age in years")),
    "scale_file": ("--scale-file", dict(help="custom cut-point scale CSV")),
    "cut_axis": ("--cut-axis", dict(help="counts signal for cut points (default: vertical axis)")),
    "cp_signal": ("--signal", dict(help="observation signal for change-point detection")),
    "alpha_exp": ("--alpha-exp", dict(type=float)),
    "min_segment": ("--min-segment", dict(type=int)),
    "n_permutations": ("--permutations", dict(metavar="PERMUTATIONS", type=int)),
    "significance": ("--significance", dict(type=float)),
    "seed": ("--seed", dict(type=int)),
    "efficiency_threshold": ("--efficiency-threshold", dict(type=float)),
    "folds": ("--folds", dict(type=int)),
    "model": ("--model", dict()),
    "fill_gaps": ("--fill-gaps", dict(
        help="impute recording gaps with zero-count epochs (opt-in)")),
    "features_mode": ("--features", dict(
        help="fraction source: smoothed mode intervals or raw epoch labels")),
    "min_awake_min": ("--min-awake-min", dict(type=float)),
    "min_sleep_min": ("--min-sleep-min", dict(type=int)),
    "include_first_segment": ("--include-first-segment", dict(action="store_true")),
    "aggregate": ("--aggregate", dict(type=int, metavar="FACTOR")),
    "mode_tie_break": ("--mode-tie-break", dict(help="mode histogram ties go to this intensity")),
    "include_awake_feature": ("--awake-feature", dict(
        action="store_true", help="append awake minutes as a fifth model feature")),
}


def _add_stage_options(parser: argparse.ArgumentParser, stages: tuple[str, ...]) -> None:
    fields = {name for stage in stages for name in STAGE_FIELDS[stage]}
    for name, (flag, kwargs) in _FLAGS.items():
        if name not in fields:
            continue
        if name in CHOICES:
            kwargs = dict(kwargs, choices=CHOICES[name])
        if "type" in kwargs:
            kwargs = dict(kwargs, type=_checked(kwargs["type"], name))
        # an absent flag sets nothing, so PipelineConfig alone holds the defaults
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS, **kwargs)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(**{k: v for k, v in vars(args).items() if k in _FLAGS})


def _one_input(path: str) -> Path:
    """The one epoch CSV ``path`` names, for the commands that read one recording."""
    inputs = find_inputs(path)
    if len(inputs) > 1:
        raise ParseError(f"{path} holds {len(inputs)} .csv files; this command reads one")
    return inputs[0]


def cmd_validate(args: argparse.Namespace) -> int:
    series = load_series(_one_input(args.input), _config_from_args(args))
    _log(f"{args.input}: OK ({len(series)} epochs)")
    return 0


def _report_command(suffix: str, noun: str, sleep_only: bool):
    """Handler that analyzes one recording and writes its ``suffix`` report."""

    def handler(args: argparse.Namespace) -> int:
        path = _one_input(args.input)
        with worker_map([path]) as map_units:
            [analysis] = analyze_inputs(
                [path], _config_from_args(args), sleep_only, map=map_units
            )
        out = Path(args.out or f"{path.stem}.{suffix}")
        count = write_report(suffix, analysis, out)
        _log(f"wrote {out} ({count} {noun})")
        return 0

    return handler


def cmd_features(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = find_inputs(args.input)
    with worker_map(paths) as map_units:
        dataset = pooled_dataset(analyze_inputs(paths, config, map=map_units), config)
    out = Path(args.out or "dataset.csv")
    write_dataset(dataset, out)
    _log(f"wrote {out} ({len(dataset)} row(s))")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.model:
        raise ModelError("train requires --model")
    with open(args.input, encoding="utf-8") as fh:
        dataset = read_dataset_csv(fh)
    paths = train_and_report(dataset, Path(args.out_dir), config)
    for p in paths:
        _log(f"wrote {p}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if not math.isfinite(args.threshold):
        raise ParseError(f"--threshold must be a finite number, got {args.threshold}")
    scores, labels = [], []
    with open(args.input, newline="", encoding="utf-8") as fh:
        for line_number, row in read_table(fh, ["score", "label"], "eval "):
            label = label_cell(row[1], line_number, numeric=True)
            scores.append(finite_cell(row[0], line_number, "score"))
            labels.append(label)
    report = evaluate(scores, labels, class_threshold=args.threshold)
    out = Path(args.out or "eval_report.json")
    write_json(out, {**report.summary(), "roc_points": [[f, t] for f, t in report.roc_points]})
    _log(f"wrote {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = find_inputs(args.input)
    with worker_map(paths) as map_units:
        written = run_pipeline(paths, Path(args.report), config, map=map_units)
    _log(f"wrote {len(written) - 1} output file(s) + {written[-1]}")
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

    def add(name: str, handler, help_text: str, stages: tuple[str, ...] = ()):
        p = sub.add_parser(name, help=help_text)
        _add_stage_options(p, stages)
        p.set_defaults(handler=handler)
        return p

    sleep_stages = ("ingest", "sleep")
    mode_stages = (*sleep_stages, "changepoints")
    p = add("validate", cmd_validate, "check an epoch CSV for grid gaps and ordering", ("ingest",))
    p.add_argument("--in", dest="input", required=True)

    # sleep and segment reports need no change points, so they run the sleep stage only
    for name, suffix, noun, stages, help_text in [
        ("sleep", "sleep.json", "sleep period(s)", sleep_stages,
         "detect sleep periods and write the JSON sleep report"),
        ("segment", "segments.csv", "segment(s)", sleep_stages,
         "write the sleep-wake segment manifest"),
        ("changepoints", "changepoints.csv", "change point(s)", mode_stages,
         "write per-segment change points"),
        ("modes", "modes.csv", "mode interval(s)", mode_stages,
         "write labeled activity-mode intervals"),
    ]:
        p = add(name, _report_command(suffix, noun, stages == sleep_stages), help_text, stages)
        p.add_argument("--in", dest="input", required=True)
        p.add_argument("--out", default=None)

    p = add(
        "features", cmd_features, "build the model dataset from recordings",
        (*mode_stages, "dataset"),
    )
    p.add_argument("--in", dest="input", required=True, help="epoch CSV or directory of CSVs")
    p.add_argument("--out", default=None)

    p = add("train", cmd_train, "cross-validate a model on a dataset CSV", ("model",))
    p.add_argument("--in", dest="input", required=True, help="dataset.csv from `features`")
    p.add_argument("--out-dir", default=".")

    p = add("eval", cmd_eval, "evaluate a score,label CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threshold", type=float, default=0.5)

    p = add("run", cmd_run, "run the full pipeline and write all reports", tuple(STAGE_FIELDS))
    p.add_argument("--in", dest="input", required=True, help="epoch CSV or directory of CSVs")
    p.add_argument("--report", required=True, help="output directory")

    p = add("synth", cmd_synth, "generate a synthetic recording")
    p.add_argument("--profile", required=True, help="day profile JSON")
    p.add_argument("--out", required=True, help="epoch CSV to write")
    p.add_argument("--truth", default=None, help="optional ground-truth JSON to write")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse reads "--flag=--" as no value, past its type
        parser.error("an option was given '--' as its value")
    try:
        return args.handler(args)
    except ParseError as exc:
        _log(f"parse error: {exc}")
        return EXIT_PARSE
    except InvalidProfile as exc:
        _log(f"profile error: {exc}")
        return EXIT_PARSE
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        _log(f"input error: {exc}")
        return EXIT_PARSE
    except WorkerLost as exc:
        _log(f"worker failure: {exc}")
        return EXIT_WORKER
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
