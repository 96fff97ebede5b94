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

import numpy as np

from . import __version__
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
from .ingest import EpochSeries, aggregate_epochs, fill_gaps, parse_epoch_csv, validate_series, vm3
from .modes import TIE_BREAKS, ActivityMode, label_intervals, mode_report_rows
from .models import MODEL_KINDS, cross_validate, make_config
from .reports import sha256_file, write_csv, write_json, write_roc_outputs
from .segments import SleepWakeSegment, segment_id, segment_manifest_rows, segment_sleep_wake
from .sleep import (
    CandidateConfig,
    SleepRules,
    candidate_mask,
    compute_metrics,
    detect_sleep_periods,
    sleep_report,
)


# The allowed values of each enumerated PipelineConfig field, which are the
# CLI flags' choices; the field's default (None for model and fill_gaps) is too.
CHOICES = {
    "cut_axis": ("axis1", "vm3"),
    "cp_signal": ("triaxial", "vm3"),
    "model": MODEL_KINDS,
    "fill_gaps": ("sedentary-zero",),
    "features_mode": ("modes", "raw"),
    "mode_tie_break": TIE_BREAKS,
}


@dataclass
class PipelineConfig:
    age_years: int | None = None  # None -> cutpoints.DEFAULT_AGE_YEARS
    scale_file: str | None = None
    cut_axis: str = "axis1"  # cut-point signal
    cp_signal: str = "triaxial"  # change-point observations
    alpha_exp: float = 1.0
    min_segment: int = 30
    n_permutations: int = 99
    significance: float = 0.01
    seed: int = 0
    efficiency_threshold: float = EFFICIENCY_THRESHOLD
    folds: int = 5
    model: str | None = None  # None -> no model stage
    fill_gaps: str | None = None  # None -> gaps are a validation failure
    features_mode: str = "modes"
    min_awake_min: float = 0.0
    min_sleep_min: int = 0
    include_first_segment: bool = False
    aggregate: int = 1
    mode_tie_break: str = "lower"
    include_awake_feature: bool = False
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
        for name, choices in CHOICES.items():
            if getattr(self, name) not in (*choices, getattr(PipelineConfig, name)):
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")

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


# The PipelineConfig fields each stage reads, ``candidate`` aside; a CLI
# subcommand takes the flags of the stages it runs and no others.
STAGE_FIELDS = {
    "ingest": ("fill_gaps", "aggregate"),
    "sleep": ("age_years", "scale_file", "cut_axis", "min_sleep_min"),
    "changepoints": (
        "cp_signal", "alpha_exp", "min_segment", "n_permutations", "significance", "seed",
        "mode_tie_break",
    ),
    "dataset": ("features_mode", "efficiency_threshold", "include_first_segment", "min_awake_min"),
    "model": ("model", "folds", "seed", "include_awake_feature"),
}


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
    """The epoch CSV ``path``, or the ``*.csv`` files in directory ``path``, sorted."""
    p = Path(path)
    if not p.exists():
        raise ParseError(f"input {p} does not exist")
    files = sorted(p.glob("*.csv")) if p.is_dir() else [p]
    if not files:
        raise ParseError(f"no .csv files in {p}")
    return files


def load_series(path: str | Path, config: PipelineConfig) -> EpochSeries:
    with open(path, encoding="utf-8") as fh:
        series = parse_epoch_csv(fh)
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


def analyze_recording(
    name: str, series: EpochSeries, config: PipelineConfig
) -> RecordingAnalysis:
    """Run all per-recording stages on an already-validated series: the sleep
    stage, then change points and modes for each awake span."""
    analysis = analyze_sleep(name, series, config)
    add_change_points([analysis], config)
    return analysis


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
            # a span too short to split is one mode: e_divisive returns at once
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


def write_report(suffix: str, analysis: RecordingAnalysis, path: str | Path) -> int:
    """Write the ``suffix`` report of one recording; returns its row count."""
    header, build_rows = RECORDING_REPORTS[suffix]
    rows = build_rows(analysis)
    if header is None:
        write_json(path, rows)
    else:
        write_csv(path, header, rows)
    return len(rows)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_dataset_csv(dataset, fh)


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


def run_pipeline(
    inputs: list[Path], out_dir: Path, config: PipelineConfig, map=map
) -> list[Path]:
    """Full batch run over one or more epoch CSVs, in the order given; writes
    reports + manifest and returns the paths written, ``manifest.json`` last.
    ``map`` runs the independent units of the analysis and of the model's
    cross-validation (see :mod:`rahar.workers`)."""
    out_dir = Path(out_dir)
    timings: dict[str, float] = {}
    outputs: list[Path] = []
    analyses = analyze_inputs(inputs, config, timings=timings, map=map)
    t0 = time.perf_counter()
    dataset = pooled_dataset(analyses, config)
    pool_s = time.perf_counter() - t0
    model_outputs: list[Path] = []
    if config.model:
        t0 = time.perf_counter()
        model_outputs = train_and_report(dataset, out_dir, config, map)
        model_s = time.perf_counter() - t0
    # created only once every recording is analysed, the dataset has rows and
    # the model has cross-validated, so a bad input, scale file or age, an
    # empty dataset or a model failure (exit codes 4 and 5 at the CLI) leaves
    # nothing behind
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    for a in analyses:
        for suffix in RECORDING_REPORTS:
            path = out_dir / f"{a.name}.{suffix}"
            write_report(suffix, a, path)
            outputs.append(path)
    timings["reports"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dataset_path = out_dir / "dataset.csv"
    write_dataset(dataset, dataset_path)
    outputs.append(dataset_path)
    timings["features"] = pool_s + time.perf_counter() - t0

    outputs.extend(model_outputs)
    if config.model:
        timings["model"] = model_s

    manifest_path = out_dir / "manifest.json"
    manifest = {
        "tool": "rahar",
        "version": __version__,
        "parameters": config.manifest_parameters(),
        "inputs": {p.name: sha256_file(p) for p in inputs},
        "outputs": {p.name: sha256_file(p) for p in sorted(outputs)},
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    write_json(manifest_path, manifest)
    return [*outputs, manifest_path]


def train_and_report(
    dataset: Dataset, out_dir: Path, config: PipelineConfig, map=map
) -> list[Path]:
    """Cross-validate the configured model on the four fractions, plus awake
    minutes with ``include_awake_feature``, with ``map`` running the folds;
    only then create ``out_dir`` and write report + ROC files into it."""
    out_dir = Path(out_dir)
    X = dataset.X
    if config.include_awake_feature:
        X = np.hstack([X, dataset.awake_minutes[:, None]])
    model_cfg = make_config(config.model, seed=config.seed)
    result = cross_validate(
        X, dataset.y, config.model, config=model_cfg, folds=config.folds, seed=config.seed,
        map=map,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "model_kind": config.model,
        "hyperparameters": {
            k: v for k, v in vars(model_cfg).items() if not k.startswith("_")
        },
        "seed": config.seed,
        "folds": config.folds,
        "n_rows": len(dataset),
        "per_fold": [r.summary() for r in result.fold_reports],
        "pooled": result.pooled.summary(),
        "roc_points": [[f, t] for f, t in result.pooled.roc_points],
    }
    report_path = out_dir / "model_report.json"
    write_json(report_path, report)
    roc_paths = write_roc_outputs(
        out_dir, "roc", result.pooled.roc_points, f"{config.model} pooled CV"
    )
    return [report_path, *roc_paths]
