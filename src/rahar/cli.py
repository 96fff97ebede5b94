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
import dataclasses
import math
import os
import sys
from pathlib import Path
from typing import TextIO

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
from .features import read_dataset_csv
from .ingest import label_cell, number_cell, read_input, read_table, serialize_epoch_csv
from .models import evaluate
from .pipeline import (
    MODEL_REPORTS,
    PARAMETERS,
    PipelineConfig,
    analyze_inputs,
    find_inputs,
    load_series,
    pooled_dataset,
    run_outputs,
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


def _add_stage_options(parser: argparse.ArgumentParser, stages: tuple[str, ...]) -> None:
    """Add the flags of the fields ``stages`` read; PipelineConfig checks every value."""
    for param in PARAMETERS:
        meta = param.metadata
        if set(stages).isdisjoint(meta["stages"]):
            continue
        kwargs = meta["argparse"]
        if "type" in kwargs:
            kwargs = dict(kwargs, type=_checked(kwargs["type"], param.name))
        # an absent flag sets nothing, so PipelineConfig alone holds the defaults
        parser.add_argument(meta["flag"], dest=param.name, default=argparse.SUPPRESS, **kwargs)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(**{p.name: getattr(args, p.name) for p in PARAMETERS if p.name in args})


def _no_overwrite(inputs: list[tuple[str, object]], outputs: list[tuple[str, object]]) -> None:
    """Refuse, before any work, an output that names a directory, lies in a file,
    or names the same file as an input or an earlier output.  Each entry is a
    flag and its path, or None.  ``realpath``, unlike ``Path.resolve``, raises
    no error on a symlink loop."""
    named = {os.path.realpath(path): flag for flag, path in inputs if path}
    for flag, path in outputs:
        if not path:
            continue
        if os.path.isdir(path):
            raise ParseError(f"{flag} {path} is a directory")
        if os.path.isfile(os.path.dirname(path)):
            raise ParseError(f"{flag} {path}: {os.path.dirname(path)} is not a directory")
        resolved = os.path.realpath(path)
        if resolved in named:
            raise ParseError(f"{named[resolved]} and {flag} both name {path}")
        named[resolved] = flag


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
        config = _config_from_args(args)
        path = _one_input(args.input)
        out = Path(args.out or f"{path.stem}.{suffix}")
        _no_overwrite([("--in", path), ("--scale-file", config.scale_file)], [("--out", out)])
        with worker_map([path]) as map_units:
            [analysis] = analyze_inputs([path], config, sleep_only, map=map_units)
        count = write_report(suffix, analysis, out)
        _log(f"wrote {out} ({count} {noun})")
        return 0

    return handler


def cmd_features(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = find_inputs(args.input)
    out = Path(args.out or "dataset.csv")
    reads = [*(("--in", p) for p in paths), ("--scale-file", config.scale_file)]
    _no_overwrite(reads, [("--out", out)])
    with worker_map(paths) as map_units:
        dataset = pooled_dataset(analyze_inputs(paths, config, map=map_units), config)
    write_dataset(dataset, out)
    _log(f"wrote {out} ({len(dataset)} row(s))")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.model:
        raise ModelError("train requires --model")
    out_dir = Path(args.out_dir)
    _no_overwrite([("--in", args.input)], [("--out-dir", out_dir / n) for n in MODEL_REPORTS])
    dataset = read_input(args.input, read_dataset_csv)
    paths = train_and_report(dataset, out_dir, config)
    for p in paths:
        _log(f"wrote {p}")
    return 0


def _read_scored(stream: TextIO) -> tuple[list[float], list[int]]:
    """The scores and labels of a score,label table; a row's label is checked first."""
    rows = [(label_cell(row[1], n, numeric=True), number_cell(row[0], n, "score"))
            for n, row in read_table(stream, ["score", "label"], "eval ")]
    return [score for _, score in rows], [label for label, _ in rows]


def cmd_eval(args: argparse.Namespace) -> int:
    if not math.isfinite(args.threshold):
        raise ParseError(f"--threshold must be a finite number, got {args.threshold}")
    out = Path(args.out or "eval_report.json")
    _no_overwrite([("--in", args.input)], [("--out", out)])
    scores, labels = read_input(args.input, _read_scored)
    report = evaluate(scores, labels, class_threshold=args.threshold)
    write_json(out, dataclasses.asdict(report))
    _log(f"wrote {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = find_inputs(args.input)
    report = Path(args.report)
    reads = [*(("--in", p) for p in paths), ("--scale-file", config.scale_file)]
    _no_overwrite(reads, [("--report", report / name) for name in run_outputs(paths, config)])
    with worker_map(paths) as map_units:
        written = run_pipeline(paths, report, config, map=map_units)
    _log(f"wrote {len(written) - 1} output file(s) + {written[-1]}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    _no_overwrite([("--profile", args.profile)], [("--truth", args.truth), ("--out", args.out)])
    series, truth = generate(load_profile(args.profile))
    with open(out, "w", newline="", encoding="utf-8") as fh:
        serialize_epoch_csv(series, fh)
    if args.truth:
        schedule = [{"start": s, "end": e, "mode": m} for s, e, m in truth.mode_schedule]
        try:
            write_json(args.truth, {**dataclasses.asdict(truth), "mode_schedule": schedule})
        except OSError:
            out.unlink()  # a synth that fails writes no file
            raise
    _log(f"wrote {out} ({len(series)} epochs)")
    if args.truth:
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

    every_stage = tuple({stage for param in PARAMETERS for stage in param.metadata["stages"]})
    p = add("run", cmd_run, "run the full pipeline and write all reports", every_stage)
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
    except OSError as exc:  # ingest.read_input reports every input's faults
        _log(f"output error: {exc}")
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
