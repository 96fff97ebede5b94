"""End-to-end orchestration with file outputs and a provenance manifest.

One recording flows through ingest -> cut points -> sleep detection ->
sleep-wake segmentation -> change points -> modes -> features; multiple
recordings pool their feature rows into one dataset, optionally followed
by seeded cross-validated model training.  Every parameter that affects
output lands in the run manifest, together with input/output digests and
per-stage wall-clock timings.  Data outputs are byte-identical across
runs with the same inputs and seed; the manifest differs only in its
timings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from datetime import timedelta
from functools import partial
from pathlib import Path
from typing import TextIO

import numpy as np

from . import MODEL_KINDS, __version__
from .changepoint import ChangePointSet, EnergyParams, PermutationConfig, e_divisive
from .cutpoints import CutPointScale, builtin_troiano_scale, classify_series, load_scale_file
from .errors import ParseError, ValidationError
from .features import (
    EFFICIENCY_THRESHOLD,
    Dataset,
    FeatureVector,
    build_dataset,
    extract_features,
    raw_fractions,
    write_dataset_csv,
)
from .ingest import (EpochSeries, aggregate_epochs, fill_gaps, parse_epoch_csv, read_input,
                     validate_series, vm3)
from .modes import TIE_BREAKS, ActivityMode, label_intervals, mode_report_rows
from .reports import Writer, roc_svg, sha256_file, write_csv, write_json, write_outputs
from .segments import SleepWakeSegment, segment_id, segment_manifest_rows, segment_sleep_wake
from .sleep import (
    CandidateConfig,
    SleepRules,
    candidate_mask,
    compute_metrics,
    detect_sleep_periods,
    sleep_report,
)


def _param(default, stages: str, flag: str, **argparse_keywords):
    """A PipelineConfig field declared whole: its default, the stages that read
    it (space-separated), its CLI flag and the flag's argparse keywords.  A
    subcommand takes the flags of its stages; ``choices`` or the default bound the value."""
    metadata = {"stages": tuple(stages.split()), "flag": flag, "argparse": argparse_keywords}
    return field(default=default, metadata=metadata)


@dataclass
class PipelineConfig:
    age_years: int | None = _param(  # None -> cutpoints.DEFAULT_AGE_YEARS
        None, "sleep", "--age", type=int, metavar="AGE", help="subject age in years")
    scale_file: str | None = _param(
        None, "sleep", "--scale-file", help="custom cut-point scale CSV")
    cut_axis: str = _param("axis1", "sleep", "--cut-axis", choices=("axis1", "vm3"),
                           help="counts signal for cut points (default: vertical axis)")
    cp_signal: str = _param("triaxial", "changepoints", "--signal", choices=("triaxial", "vm3"),
                            help="observation signal for change-point detection")
    alpha_exp: float = _param(EnergyParams.alpha_exp, "changepoints", "--alpha-exp", type=float)
    min_segment: int = _param(EnergyParams.min_segment, "changepoints", "--min-segment", type=int)
    n_permutations: int = _param(PermutationConfig.n_permutations, "changepoints",
                                 "--permutations", metavar="PERMUTATIONS", type=int)
    significance: float = _param(
        PermutationConfig.significance, "changepoints", "--significance", type=float)
    seed: int = _param(0, "changepoints model", "--seed", type=int)
    efficiency_threshold: float = _param(
        EFFICIENCY_THRESHOLD, "dataset", "--efficiency-threshold", type=float)
    folds: int = _param(5, "model", "--folds", type=int)
    model: str | None = _param(  # None -> no model stage
        None, "model", "--model", choices=MODEL_KINDS)
    fill_gaps: str | None = _param(  # None -> gaps are a validation failure
        None, "ingest", "--fill-gaps", choices=("sedentary-zero",),
        help="impute recording gaps with zero-count epochs (opt-in)")
    features_mode: str = _param(
        "modes", "dataset", "--features", choices=("modes", "raw"),
        help="fraction source: smoothed mode intervals or raw epoch labels")
    min_awake_min: float = _param(0.0, "dataset", "--min-awake-min", type=float)
    min_sleep_min: int = _param(SleepRules.min_sleep_min, "sleep", "--min-sleep-min", type=int)
    include_first_segment: bool = _param(
        False, "dataset", "--include-first-segment", action="store_true")
    aggregate: int = _param(1, "ingest", "--aggregate", type=int, metavar="FACTOR")
    mode_tie_break: str = _param("lower", "changepoints", "--mode-tie-break", choices=TIE_BREAKS,
                                 help="mode histogram ties go to this intensity")
    include_awake_feature: bool = _param(
        False, "model", "--awake-feature", action="store_true",
        help="append awake minutes as a fifth model feature")
    candidate: CandidateConfig = field(default_factory=CandidateConfig)

    def __post_init__(self):
        # the stage classes check their own fields when built
        self.sleep_rules()
        self.energy_params()
        PermutationConfig(self.n_permutations, self.significance, master_seed=self.seed)
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if not 0 < self.efficiency_threshold <= 1:
            raise ValueError(
                f"efficiency_threshold must be in (0, 1], got {self.efficiency_threshold}"
            )
        if not self.min_awake_min >= 0:
            raise ValueError(f"min_awake_min must be >= 0, got {self.min_awake_min}")
        most = timedelta.max // timedelta(minutes=1)  # the longest aggregated minute epoch
        if not 1 <= self.aggregate <= most:
            raise ValueError(f"aggregate must be in [1, {most}], got {self.aggregate}")
        for param in PARAMETERS:
            choices, value = param.metadata["argparse"].get("choices"), getattr(self, param.name)
            if choices and value not in (*choices, param.default):
                raise ValueError(f"{param.name} must be one of {choices}, got {value!r}")

    def sleep_rules(self) -> SleepRules:
        return SleepRules(min_sleep_min=self.min_sleep_min)

    def energy_params(self) -> EnergyParams:
        return EnergyParams(alpha_exp=self.alpha_exp, min_segment=self.min_segment)

    def load_scale(self) -> CutPointScale:
        if self.scale_file:
            return load_scale_file(self.scale_file)
        return builtin_troiano_scale()

    def manifest_parameters(self) -> dict:
        params = dataclasses.asdict(self)
        params["scale_file"] = self.scale_file or "builtin:troiano-2008"
        params["candidate"]["inclinometer_accept"] = sorted(
            s.token for s in self.candidate.inclinometer_accept
        )
        return params


# the fields declared with ``_param``: every one but ``candidate``, in --help order
PARAMETERS = tuple(f for f in dataclasses.fields(PipelineConfig) if f.metadata)


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary labeled parts (e.g. file/segment ids)."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class RecordingAnalysis:
    """Everything derived from one recording, prior to dataset pooling."""

    name: str
    series: EpochSeries
    intensity: np.ndarray  # uint8 IntensityLevel codes
    periods: list
    metrics: list
    segments: list[SleepWakeSegment]
    change_points: list[ChangePointSet] = field(default_factory=list)  # filled by the mode stage
    modes: list[list[ActivityMode]] = field(default_factory=list)


def find_inputs(path: str | Path) -> list[Path]:
    """The epoch CSV ``path``, or the ``*.csv`` files in directory ``path``, sorted;
    a directory's ``*.csv`` entry that is not a file is not an input."""
    p = Path(path)
    if not p.exists():
        raise ParseError(f"input {p} does not exist")
    files = sorted(f for f in p.glob("*.csv") if f.is_file()) if p.is_dir() else [p]
    if not files:
        raise ParseError(f"no .csv files in {p}")
    return files


def load_series(path: str | Path, config: PipelineConfig) -> EpochSeries:
    series = read_input(path, parse_epoch_csv)
    if config.fill_gaps == "sedentary-zero":
        series, _ = fill_gaps(series)
    series = validate_series(series)
    if config.aggregate > 1:
        series, _ = aggregate_epochs(series, config.aggregate)
    return series


def cp_observations(series: EpochSeries, start: int, stop: int, cp_signal: str) -> np.ndarray:
    """Change-point observations of epochs [start, stop); ``vm3`` is the exact
    magnitude the cut points classify, one column."""
    if cp_signal == "triaxial":
        return series.counts[start:stop, :3].astype(float, order="C")
    if cp_signal == "vm3":
        return vm3(series.counts[start:stop])[:, None]
    raise ValueError(f"unknown cp_signal {cp_signal!r}")


def analyze_sleep(name: str, series: EpochSeries, config: PipelineConfig) -> RecordingAnalysis:
    """Sleep stage: cut points, candidate mask, sleep periods, metrics, segments."""
    scale = config.load_scale()
    rules = config.sleep_rules()
    intensity = classify_series(series, scale, config.age_years, signal=config.cut_axis)
    mask = candidate_mask(series, config.candidate)
    periods = detect_sleep_periods(mask, rules)
    metrics = [
        compute_metrics(mask, intensity, p, rules, series.epoch_minutes) for p in periods
    ]
    return RecordingAnalysis(
        name=name,
        series=series,
        intensity=intensity,
        periods=periods,
        metrics=metrics,
        segments=segment_sleep_wake(series, periods, metrics),
    )


def _load_and_sleep(config: PipelineConfig, path: Path) -> RecordingAnalysis | Exception:
    """Load one epoch CSV and run its sleep stage.  A load failure names the
    file and is raised; a failure of the sleep stage is returned instead, so
    the caller raises it only once every file has loaded."""
    try:
        series = load_series(path, config)
    except (ParseError, ValidationError) as exc:
        exc.args = (f"{path.name}: {exc}",)  # str(exc), the one-line message
        raise
    try:
        return analyze_sleep(path.stem, series, config)
    except Exception as exc:  # e.g. a bad scale file or age; analyze_inputs raises it
        return exc


def _span_change_points(energy: EnergyParams, task: tuple) -> ChangePointSet:
    span, perm_cfg = task
    return e_divisive(span, energy, perm_cfg)


def add_change_points(
    analyses: list[RecordingAnalysis], config: PipelineConfig, map=map
) -> None:
    """Fill the change points and modes of every awake span of ``analyses``.

    ``map`` runs ``e_divisive`` once per span long enough to split, across all
    recordings; the observations are built and the modes labelled here.
    """
    energy = config.energy_params()

    def task(a: RecordingAnalysis, k: int, seg: SleepWakeSegment) -> tuple:
        span = cp_observations(
            a.series, seg.awake_start_index, seg.awake_end_index, config.cp_signal
        )
        perm_cfg = PermutationConfig(
            n_permutations=config.n_permutations,
            significance=config.significance,
            master_seed=derive_seed(config.seed, a.name, k),
        )
        return span, perm_cfg

    def splittable(seg: SleepWakeSegment) -> bool:
        return not seg.empty_awake and seg.awake_epochs >= 2 * energy.min_segment

    work = [
        task(a, k, seg) for a in analyses for k, seg in enumerate(a.segments) if splittable(seg)
    ]
    found = iter(map(partial(_span_change_points, energy), work))
    for a in analyses:
        for k, seg in enumerate(a.segments):
            if seg.empty_awake:
                a.change_points.append([])
                a.modes.append([])
                continue
            # A span too short to split is one mode: e_divisive returns at once.
            # It is called anyway, in process, as perfbench/run.py --trace 1 reads
            # these calls: its spans_skipped count, and probe()'s observations,
            # the only ones on a study of short spans (else probe() indexes []).
            cps = next(found) if splittable(seg) else _span_change_points(energy, task(a, k, seg))
            a.change_points.append(cps)
            span_labels = a.intensity[seg.awake_start_index : seg.awake_end_index]
            a.modes.append(label_intervals(span_labels, cps, tie_break=config.mode_tie_break))


def analyze_inputs(
    paths: list[Path],
    config: PipelineConfig,
    sleep_only: bool = False,
    timings: dict | None = None,
    map=map,
) -> list[RecordingAnalysis]:
    """Load every file and run its sleep stage, then (unless ``sleep_only``)
    the change points and modes of every recording, in the order given.

    ``map`` runs the independent units: one file each, then one awake span
    each (see :mod:`rahar.workers`).  A file that fails to load is named, and
    the first such file in the order given fails the call; only when every
    file has loaded does a failed sleep stage fail it.  ``timings`` gets
    the seconds spent loading and sleep-scoring (``ingest``) and on change
    points and modes (``analyze``).
    """
    timings = {} if timings is None else timings
    t0 = time.perf_counter()
    analyses = list(map(partial(_load_and_sleep, config), paths))
    for result in analyses:
        if isinstance(result, Exception):
            raise result
    timings["ingest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if not sleep_only:
        add_change_points(analyses, config, map)
    timings["analyze"] = time.perf_counter() - t0
    return analyses


def _changepoint_rows(a: RecordingAnalysis) -> list[list]:
    return [
        [segment_id(a.name, k), cp.index, repr(cp.statistic), repr(cp.p_value)]
        for k, cps in enumerate(a.change_points)
        for cp in cps
    ]


def _mode_rows(a: RecordingAnalysis) -> list[list]:
    return [
        row
        for k, modes in enumerate(a.modes)
        for row in mode_report_rows(segment_id(a.name, k), modes)
    ]


# per-recording report file suffix -> (CSV header, or None for JSON; row builder)
RECORDING_REPORTS = {
    "sleep.json": (None, lambda a: sleep_report(a.series, a.periods, a.metrics)),
    "segments.csv": (
        ["segment_id", "awake_start", "awake_end", "onset", "awakening", "efficiency", "flags"],
        lambda a: segment_manifest_rows(a.segments, a.name),
    ),
    "changepoints.csv": (["segment_id", "cp_index", "statistic", "p_value"], _changepoint_rows),
    "modes.csv": (["segment_id", "start", "end", "mode"], _mode_rows),
}


def write_report(suffix: str, analysis: RecordingAnalysis, stream: TextIO) -> int:
    """Write the ``suffix`` report of one recording; returns its row count."""
    header, build_rows = RECORDING_REPORTS[suffix]
    rows = build_rows(analysis)
    if header is None:
        write_json(rows, stream)
    else:
        write_csv(header, rows, stream)
    return len(rows)


def report_name(stem: str, suffix: str) -> str:
    """The file name of recording ``stem``'s ``suffix`` report."""
    return f"{stem}.{suffix}"


DATASET_CSV = "dataset.csv"  # the pooled dataset of `features` and `run`


def pooled_dataset(analyses: list[RecordingAnalysis], config: PipelineConfig) -> Dataset:
    segments: list[SleepWakeSegment] = []
    features: list[FeatureVector | None] = []
    ids: list[str] = []
    for a in analyses:
        for k, seg in enumerate(a.segments):
            if seg.empty_awake:
                fv = None
            elif config.features_mode == "raw":
                span_labels = a.intensity[seg.awake_start_index : seg.awake_end_index]
                fv = raw_fractions(seg, span_labels, a.series.epoch_minutes)
            else:
                fv = extract_features(seg, a.modes[k], a.series.epoch_minutes)
            segments.append(seg)
            features.append(fv)
            ids.append(segment_id(a.name, k))
    return build_dataset(
        segments,
        features,
        include_first_segment=config.include_first_segment,
        min_awake_min=config.min_awake_min,
        threshold=config.efficiency_threshold,
        segment_ids=ids,
    )


def model_outputs(out_dir: str | Path) -> dict[str, Writer]:
    """The files in ``out_dir`` that a train_and_report model report is written
    to, each with its writer of the report: by `train`, and by `run` with a model."""
    writers = {
        "model_report.json": write_json,
        "roc.csv": lambda report, stream: write_csv(
            ["fpr", "tpr"], [[repr(f), repr(t)] for f, t in report["roc_points"]], stream),
        "roc.svg": lambda report, stream: stream.write(
            roc_svg(report["roc_points"], f"{report['model_kind']} pooled CV")),
    }
    return {str(Path(out_dir, name)): write for name, write in writers.items()}


@dataclass
class RunResult:
    """What run_pipeline writes: each recording's analysis, the pooled dataset,
    the model report (None without a model) and the stage timings."""

    analyses: list[RecordingAnalysis]
    dataset: Dataset
    model_report: dict | None
    timings: dict[str, float]
    writing_since: float  # time.perf_counter() as the first output is opened


def run_outputs(
    inputs: list[Path], config: PipelineConfig, out_dir: str | Path = ""
) -> dict[str, Writer]:
    """The files run_pipeline writes into ``out_dir``, in order, each with its
    writer of the RunResult; ``manifest.json``, last, records the others."""

    def report(k: int, suffix: str) -> Writer:
        return lambda run, stream: write_report(suffix, run.analyses[k], stream)

    names = {report_name(p.stem, suffix): report(k, suffix)
             for k, p in enumerate(inputs) for suffix in RECORDING_REPORTS}
    names[DATASET_CSV] = lambda run, stream: write_dataset_csv(run.dataset, stream)
    outputs = {str(Path(out_dir, name)): write for name, write in names.items()}
    if config.model:
        for path, write in model_outputs(out_dir).items():
            outputs[path] = lambda run, stream, write=write: write(run.model_report, stream)
    written = list(outputs)

    def manifest(run: RunResult, stream: TextIO) -> None:
        timings = {**run.timings, "reports": time.perf_counter() - run.writing_since}
        write_json({
            "tool": "rahar",
            "version": __version__,
            "parameters": config.manifest_parameters(),
            "inputs": {p.name: sha256_file(p) for p in inputs},
            "outputs": {Path(p).name: sha256_file(p) for p in written},
            "timings_s": {k: round(v, 6) for k, v in timings.items()},
        }, stream)

    outputs[str(Path(out_dir, "manifest.json"))] = manifest
    return outputs


def run_pipeline(
    inputs: list[Path], out_dir: Path, config: PipelineConfig, map=map
) -> list[Path]:
    """Full batch run over one or more epoch CSVs, in the order given; returns the
    paths of its run_outputs, ``manifest.json`` last.  They are written once every
    recording is analysed, the dataset has rows and the model has cross-validated,
    so a bad input, scale file or age, an empty dataset or a model failure (exit
    codes 4 and 5 at the CLI) leaves nothing behind.  ``map`` runs the independent
    units of the analysis and of the cross-validation (see :mod:`rahar.workers`)."""
    outputs = run_outputs(inputs, config, out_dir)
    if config.model:  # imported before a map forks the workers, so that each inherits it
        from . import models  # noqa: F401
    timings: dict[str, float] = {}
    analyses = analyze_inputs(inputs, config, timings=timings, map=map)
    t0 = time.perf_counter()
    dataset = pooled_dataset(analyses, config)
    timings["features"] = time.perf_counter() - t0
    model_report = None
    if config.model:
        t0 = time.perf_counter()
        model_report = train_and_report(dataset, config, map)
        timings["model"] = time.perf_counter() - t0
    run = RunResult(analyses, dataset, model_report, timings, time.perf_counter())
    return list(write_outputs(outputs, run))


def train_and_report(dataset: Dataset, config: PipelineConfig, map=map) -> dict:
    """Cross-validate the configured model on the four fractions, plus awake
    minutes with ``include_awake_feature``, with ``map`` running the folds;
    returns the model report that model_outputs are written from."""
    from . import models  # only a model stage loads the trainers

    X = dataset.X
    if config.include_awake_feature:
        X = np.hstack([X, dataset.awake_minutes[:, None]])
    model_cfg = models.make_config(config.model, seed=config.seed)
    result = models.cross_validate(X, dataset.y, config.model, config=model_cfg,
                                   folds=config.folds, seed=config.seed, map=map)
    return {
        "model_kind": config.model,
        "hyperparameters": {k: v for k, v in vars(model_cfg).items() if not k.startswith("_")},
        "seed": config.seed,
        "folds": config.folds,
        "n_rows": len(dataset),
        "per_fold": [r.summary() for r in result.fold_reports],
        "pooled": result.pooled.summary(),
        "roc_points": result.pooled.roc_points,
    }
