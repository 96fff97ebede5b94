"""Model inputs and targets per sleep-wake segment.

The model input is the fraction of awake time spent in each intensity
mode, computed over the smoothed interval labels (that smoothing is the
point of mode detection; raw per-epoch fractions are available for
ablation).  The target is binary sleep quality: efficiency below the
threshold (default 0.85) is poor, at or above it is good.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import TextIO

import numpy as np

from .cutpoints import IntensityLevel
from .errors import EmptyAwakeSpan, EmptyDataset, MalformedRow
from .ingest import is_plain_number, read_table
from .modes import ActivityMode
from .segments import SleepWakeSegment
from .sleep import SleepMetrics

DATASET_HEADER = [
    "segment_id",
    "frac_sed",
    "frac_light",
    "frac_mod",
    "frac_vig",
    "awake_min",
    "efficiency",
    "label",
]

EFFICIENCY_THRESHOLD = 0.85


class Quality(IntEnum):
    """Binary sleep quality; order matters (poor < good) for monotonicity."""

    POOR = 0
    GOOD = 1

    @property
    def token(self) -> str:
        return self.name.lower()

    @classmethod
    def from_token(cls, token: str) -> "Quality":
        return cls[token.upper()]


@dataclass(frozen=True)
class FeatureVector:
    frac_sedentary: float
    frac_light: float
    frac_moderate: float
    frac_vigorous: float
    awake_minutes: float  # metadata; excluded from the default model input

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.frac_sedentary, self.frac_light, self.frac_moderate, self.frac_vigorous]
        )


@dataclass
class Dataset:
    """Feature matrix + labels with per-row provenance."""

    X: np.ndarray  # (k, 4) mode fractions
    y: np.ndarray  # (k,) 1 = good sleep efficiency
    segment_ids: list[str]
    efficiency: np.ndarray
    awake_minutes: np.ndarray

    def __len__(self) -> int:
        return len(self.segment_ids)


def _fractions_from_lengths(lengths_by_level: np.ndarray) -> np.ndarray:
    total = lengths_by_level.sum()
    return lengths_by_level / total


def extract_features(
    segment: SleepWakeSegment,
    modes: list[ActivityMode],
    epoch_minutes: float = 1.0,
) -> FeatureVector:
    """Fractions of awake time per intensity mode, from smoothed interval labels.

    The modes must tile the segment's awake span exactly.
    """
    span_len = segment.awake_epochs
    if span_len == 0:
        raise EmptyAwakeSpan("cannot extract fractions from a zero-length awake span")
    if not modes or modes[0].start_index != 0 or modes[-1].end_index != span_len:
        raise ValueError("modes must tile the awake span")
    for prev, cur in zip(modes, modes[1:]):
        if prev.end_index != cur.start_index:
            raise ValueError("modes must tile the awake span without gaps")
    lengths = np.zeros(4)
    for m in modes:
        lengths[int(m.level)] += m.length
    frac = _fractions_from_lengths(lengths)
    return FeatureVector(*frac, awake_minutes=span_len * epoch_minutes)


def raw_fractions(
    segment: SleepWakeSegment,
    intensity_span: list[IntensityLevel] | np.ndarray,
    epoch_minutes: float = 1.0,
) -> FeatureVector:
    """Ablation variant: fractions from raw per-epoch labels, no smoothing."""
    span_len = segment.awake_epochs
    if span_len == 0:
        raise EmptyAwakeSpan("cannot extract fractions from a zero-length awake span")
    if len(intensity_span) != span_len:
        raise ValueError("intensity labels must align with the awake span")
    hist = np.bincount(np.asarray(intensity_span, dtype=np.intp), minlength=4).astype(float)
    frac = _fractions_from_lengths(hist)
    return FeatureVector(*frac, awake_minutes=span_len * epoch_minutes)


def label_target(metrics: SleepMetrics, threshold: float = EFFICIENCY_THRESHOLD) -> Quality:
    """Poor sleep iff efficiency is strictly below the threshold."""
    return Quality.POOR if metrics.efficiency < threshold else Quality.GOOD


def build_dataset(
    segments: list[SleepWakeSegment],
    features: list[FeatureVector | None],
    *,
    include_first_segment: bool = False,
    min_awake_min: float = 0.0,
    threshold: float = EFFICIENCY_THRESHOLD,
    segment_ids: list[str] | None = None,
) -> Dataset:
    """Assemble the model matrix of four fractions, in segment order.

    ``features`` holds one vector per segment (from :func:`extract_features`
    or :func:`raw_fractions`), ``None`` where the awake span is empty.
    Truncated sleeps and empty awake spans are always skipped; the first
    segment is skipped unless ``include_first_segment``, and awake spans
    shorter than ``min_awake_min`` minutes are skipped (0 keeps them all).
    """
    if len(segments) != len(features):
        raise ValueError("segments and features must align")
    ids = segment_ids or [f"seg{k:04d}" for k in range(len(segments))]
    rows, labels, kept_ids, effs, awake = [], [], [], [], []
    for seg, fv, seg_id in zip(segments, features, ids):
        if seg.first_segment and not include_first_segment:
            continue
        if seg.sleep.truncated or fv is None:
            continue
        if min_awake_min > 0 and fv.awake_minutes < min_awake_min:
            continue
        rows.append(fv.as_array())
        labels.append(int(label_target(seg.metrics, threshold)))
        kept_ids.append(seg_id)
        effs.append(seg.metrics.efficiency)
        awake.append(fv.awake_minutes)
    if not rows:
        raise EmptyDataset("all segments were filtered out")
    return Dataset(
        X=np.vstack(rows),
        y=np.asarray(labels, dtype=np.int64),
        segment_ids=kept_ids,
        efficiency=np.asarray(effs),
        awake_minutes=np.asarray(awake),
    )


def write_dataset_csv(dataset: Dataset, stream: TextIO) -> None:
    """Write the exchange-format dataset CSV (floats via repr, so reads round-trip)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(DATASET_HEADER)
    for i, seg_id in enumerate(dataset.segment_ids):
        writer.writerow(
            [
                seg_id,
                *(repr(float(v)) for v in dataset.X[i]),
                repr(float(dataset.awake_minutes[i])),
                repr(float(dataset.efficiency[i])),
                Quality(dataset.y[i]).token,
            ]
        )


def finite_cell(text: str, line_number: int, name: str) -> float:
    """The number in the table cell ``name``; a :class:`MalformedRow` naming
    ``line_number`` when it is not a finite number in plain ASCII."""
    try:
        if not is_plain_number(text):
            raise ValueError
        value = float(text)
    except ValueError:
        raise MalformedRow(line_number, f"bad {name} {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_number, f"{name} {text!r} is not a finite number")
    return value


def read_dataset_csv(stream: TextIO) -> Dataset:
    """Read a dataset CSV produced by :func:`write_dataset_csv`.

    A bad header is a :class:`ParseError`; a bad row is a
    :class:`MalformedRow` naming the physical line it starts on.
    """
    ids, X, y, effs, awake = [], [], [], [], []
    for line_number, row in read_table(stream, DATASET_HEADER, "dataset "):
        values = [
            finite_cell(v, line_number, name) for name, v in zip(DATASET_HEADER[1:7], row[1:7])
        ]
        try:
            label = Quality.from_token(row[7])
        except KeyError:
            raise MalformedRow(line_number, f"label {row[7]!r} is not good or poor") from None
        ids.append(row[0])
        X.append(values[:4])
        awake.append(values[4])
        effs.append(values[5])
        y.append(int(label))
    if not ids:
        raise EmptyDataset("dataset file has no rows")
    return Dataset(
        X=np.asarray(X),
        y=np.asarray(y, dtype=np.int64),
        segment_ids=ids,
        efficiency=np.asarray(effs),
        awake_minutes=np.asarray(awake),
    )
