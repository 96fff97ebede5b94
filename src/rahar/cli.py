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
from functools import partial
from pathlib import Path
from typing import TextIO

from . import __version__
from .errors import EmptyDataset, InvalidProfile, ModelError, ParseError, RaharError, WorkerLost
from .features import read_dataset_csv, write_dataset_csv
from .ingest import label_cell, number_cell, read_input, read_table, serialize_epoch_csv
from .pipeline import (DATASET_CSV, PARAMETERS, PipelineConfig, analyze_inputs, find_inputs,
                       load_series, model_outputs, pooled_dataset, report_name, run_outputs,
                       run_pipeline, train_and_report, write_report)
from .reports import write_json, write_outputs
from .workers import worker_map

EXIT_WORKER = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EMPTY_DATASET = 4
EXIT_MODEL = 5
# how main reports each fault, tried in order: the message's prefix and the exit code
FAULTS = [
    (ParseError, "parse error", EXIT_PARSE),
    (InvalidProfile, "profile error", EXIT_PARSE),
    (OSError, "output error", EXIT_PARSE),  # ingest.read_input reports every input's faults
    (WorkerLost, "worker failure", EXIT_WORKER),
    (EmptyDataset, "empty dataset", EXIT_EMPTY_DATASET),
    (ModelError, "model failure", EXIT_MODEL),
    (RaharError, "validation failure", EXIT_VALIDATION),
]


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
    """Refuse, before any work, an output that names a directory, has an existing
    non-directory on its path or a name too long for its file system, or names the
    same file as an input or an earlier output.  Each entry is a flag and its path,
    or None.  ``realpath``, unlike ``Path.resolve``, raises no error on a symlink loop."""
    named = {os.path.realpath(path): flag for flag, path in inputs if path}
    for flag, path in outputs:
        if not path:
            continue
        if os.path.isdir(path):
            raise ParseError(f"{flag} {path} is a directory")
        existing = [parent for parent in Path(path).parents if os.path.lexists(parent)]
        for parent in existing:
            if not os.path.isdir(parent):
                raise ParseError(f"{flag} {path}: {parent} is not a directory")
        name_max = os.pathconf(existing[0], "PC_NAME_MAX")
        if any(len(os.fsencode(name)) > name_max for name in Path(path).parts[len(existing[0].parts):]):
            raise ParseError(f"{flag} {path}: a name in it is longer than {name_max} bytes")
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
        outputs = {Path(args.out or report_name(path.stem, suffix)): partial(write_report, suffix)}
        _no_overwrite([("--in", path), ("--scale-file", config.scale_file)],
                      [("--out", out) for out in outputs])
        with worker_map([path]) as map_units:
            [analysis] = analyze_inputs([path], config, sleep_only, map=map_units)
        [(out, count)] = write_outputs(outputs, analysis).items()
        _log(f"wrote {out} ({count} {noun})")
        return 0

    return handler


def cmd_features(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = find_inputs(args.input)
    outputs = {Path(args.out or DATASET_CSV): write_dataset_csv}
    reads = [*(("--in", p) for p in paths), ("--scale-file", config.scale_file)]
    _no_overwrite(reads, [("--out", out) for out in outputs])
    with worker_map(paths) as map_units:
        dataset = pooled_dataset(analyze_inputs(paths, config, map=map_units), config)
    [out] = write_outputs(outputs, dataset)
    _log(f"wrote {out} ({len(dataset)} row(s))")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.model:
        raise ModelError("train requires --model")
    outputs = model_outputs(args.out_dir)
    _no_overwrite([("--in", args.input)], [("--out-dir", out) for out in outputs])
    dataset = read_input(args.input, read_dataset_csv)
    for out in write_outputs(outputs, train_and_report(dataset, config)):
        _log(f"wrote {out}")
    return 0


def _read_scored(stream: TextIO) -> tuple[list[float], list[int]]:
    """The scores and labels of a score,label table; a row's label is checked first."""
    rows = [(label_cell(row[1], n, numeric=True), number_cell(row[0], n, "score"))
            for n, row in read_table(stream, ["score", "label"], "eval ")]
    return [score for _, score in rows], [label for label, _ in rows]


def cmd_eval(args: argparse.Namespace) -> int:
    from .models import evaluate  # the one command that reads rahar.models here

    if not math.isfinite(args.threshold):
        raise ParseError(f"--threshold must be a finite number, got {args.threshold}")
    outputs = {Path(args.out or "eval_report.json"): write_json}
    _no_overwrite([("--in", args.input)], [("--out", out) for out in outputs])
    scores, labels = read_input(args.input, _read_scored)
    report = evaluate(scores, labels, class_threshold=args.threshold)
    [out] = write_outputs(outputs, dataclasses.asdict(report))
    _log(f"wrote {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = find_inputs(args.input)
    reads = [*(("--in", p) for p in paths), ("--scale-file", config.scale_file)]
    _no_overwrite(reads, [("--report", out) for out in run_outputs(paths, config, args.report)])
    with worker_map(paths) as map_units:
        written = run_pipeline(paths, Path(args.report), config, map=map_units)
    _log(f"wrote {len(written) - 1} output file(s) + {written[-1]}")
    return 0


def _write_truth(synthesized: tuple, stream: TextIO) -> None:
    truth = synthesized[1]
    schedule = [{"start": s, "end": e, "mode": m} for s, e, m in truth.mode_schedule]
    write_json({**dataclasses.asdict(truth), "mode_schedule": schedule}, stream)


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import generate, load_profile  # the one command that reads rahar.synth

    _no_overwrite([("--profile", args.profile)], [("--truth", args.truth), ("--out", args.out)])
    outputs = {args.out: lambda synthesized, stream: serialize_epoch_csv(synthesized[0], stream)}
    if args.truth:
        outputs[args.truth] = _write_truth
    series, truth = generate(load_profile(args.profile))
    write_outputs(outputs, (series, truth))
    _log(f"wrote {Path(args.out)} ({len(series)} epochs)")
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
    except (RaharError, OSError) as exc:
        prefix, code = next(fault[1:] for fault in FAULTS if isinstance(exc, fault[0]))
        _log(f"{prefix}: {exc}")
        return code


def console_main() -> int:
    """The console entry point (``rahar`` and ``python -m rahar``): :func:`main`,
    then, once standard output and error are flushed, the end of the process
    without interpreter teardown, which takes tens of milliseconds and has
    nothing left to do, as ``main`` has joined the worker pool and closed every
    output file.  An exception out of ``main`` (argparse's exits among them),
    or a flush that fails, takes the interpreter's usual exit."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(console_main())
