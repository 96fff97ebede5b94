"""Epoch-level actigraphy ingestion.

Input files are minute-epoch exports from wrist-worn ActiGraph-style
devices: one row per epoch with triaxial activity counts, a step count,
and the post-processed inclinometer state.  This module parses those
files, validates that the series is a clean uniform grid, and re-aggregates
to coarser epochs when a different granularity is wanted.

Raw high-frequency waveforms are out of scope; the count computation is a
proprietary device-side step and ingestion starts at epoch counts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from enum import IntEnum
from typing import Iterable, TextIO

from .errors import (
    DuplicateTimestamp,
    GapDetected,
    MalformedRow,
    MisalignedTimestamp,
    NegativeCount,
    NonMonotone,
    ParseError,
    UnknownInclinometer,
    ZeroFactor,
)

CSV_HEADER = ["timestamp", "axis1", "axis2", "axis3", "steps", "inclinometer"]


class Inclinometer(IntEnum):
    """Device posture output.  Enum order doubles as the aggregation tie-break."""

    OFF = 0
    STANDING = 1
    SITTING = 2
    LYING = 3

    @classmethod
    def from_token(cls, token: str) -> "Inclinometer":
        try:
            return cls[token.upper()]
        except KeyError:
            raise KeyError(token)

    @property
    def token(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Epoch:
    """One epoch of actigraphy: timestamp, triaxial counts, steps, posture."""

    timestamp: datetime
    axis1: int
    axis2: int
    axis3: int
    steps: int
    inclinometer: Inclinometer

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.axis1, self.axis2, self.axis3)


@dataclass(frozen=True)
class SubjectMeta:
    subject_id: str = "anon"
    age_years: int = 18

    def __post_init__(self):
        if self.age_years <= 0:
            raise ValueError(f"age_years must be positive, got {self.age_years}")


@dataclass(frozen=True)
class EpochSeries:
    """An ordered epoch sequence with a constant stride.

    Construction does not validate the stride; run :func:`validate_series`
    before feeding a series to downstream stages.
    """

    epochs: tuple[Epoch, ...]
    epoch_length: timedelta = timedelta(seconds=60)
    subject: SubjectMeta = field(default_factory=SubjectMeta)

    def __len__(self) -> int:
        return len(self.epochs)

    def __getitem__(self, i: int) -> Epoch:
        return self.epochs[i]

    @property
    def epoch_minutes(self) -> float:
        return self.epoch_length.total_seconds() / 60.0

    def timestamps(self) -> list[datetime]:
        return [e.timestamp for e in self.epochs]


@dataclass(frozen=True)
class Gap:
    """A run of missing epochs: first missing timestamp and how many."""

    start: datetime
    length: int
    after_index: int  # index of the epoch preceding the gap


def _parse_timestamp(token: str, line_number: int) -> datetime:
    # Accept a trailing Z as UTC; datetime.fromisoformat needs an explicit offset.
    if token.endswith("Z"):
        token = token[:-1] + "+00:00"
    try:
        value = datetime.fromisoformat(token)
    except ValueError:
        raise MalformedRow(line_number, f"bad timestamp {token!r}")
    if value.utcoffset() is None:
        raise MalformedRow(line_number, f"timestamp {token!r} has no UTC offset")
    return value


def _parse_count(token: str, name: str, line_number: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise MalformedRow(line_number, f"{name} {token!r} is not an integer")
    if value < 0:
        raise NegativeCount(line_number, name, value)
    return value


def parse_epoch_csv(
    source: TextIO | io.RawIOBase | bytes | str,
    meta: SubjectMeta | None = None,
    epoch_length: timedelta = timedelta(seconds=60),
) -> EpochSeries:
    """Parse an epoch CSV into an :class:`EpochSeries`, preserving row order.

    The header must be exactly ``timestamp,axis1,axis2,axis3,steps,inclinometer``;
    timestamps are ISO-8601 with an explicit UTC offset, inclinometer tokens
    are lowercase ``off|standing|sitting|lying``.
    """
    if isinstance(source, bytes):
        text = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        text = io.StringIO(source)
    elif isinstance(source.read(0), bytes):
        text = io.TextIOWrapper(source, encoding="utf-8")
    else:
        text = source

    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header")
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}")

    epochs: list[Epoch] = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise MalformedRow(line_number, f"expected 6 fields, got {len(row)}")
        ts = _parse_timestamp(row[0].strip(), line_number)
        axis1 = _parse_count(row[1].strip(), "axis1", line_number)
        axis2 = _parse_count(row[2].strip(), "axis2", line_number)
        axis3 = _parse_count(row[3].strip(), "axis3", line_number)
        steps = _parse_count(row[4].strip(), "steps", line_number)
        token = row[5].strip()
        try:
            incl = Inclinometer.from_token(token)
        except KeyError:
            raise UnknownInclinometer(line_number, token)
        epochs.append(Epoch(ts, axis1, axis2, axis3, steps, incl))

    return EpochSeries(tuple(epochs), epoch_length, meta or SubjectMeta())


def serialize_epoch_csv(series: EpochSeries, stream: TextIO) -> None:
    """Write a series back to the canonical CSV format (parse round-trips)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for e in series.epochs:
        writer.writerow(
            [e.timestamp.isoformat(), e.axis1, e.axis2, e.axis3, e.steps, e.inclinometer.token]
        )


def find_gaps(series: EpochSeries) -> list[Gap]:
    """Locate missing-epoch runs without raising.

    Raises :class:`NonMonotone` / :class:`DuplicateTimestamp` immediately,
    because a gap report is meaningless on an unordered series.
    """
    gaps: list[Gap] = []
    stride = series.epoch_length
    for i in range(1, len(series)):
        prev, cur = series.epochs[i - 1].timestamp, series.epochs[i].timestamp
        delta = cur - prev
        if delta == stride:
            continue
        if delta <= timedelta(0):
            if cur == prev:
                raise DuplicateTimestamp(f"duplicate timestamp {cur.isoformat()} at row {i}")
            raise NonMonotone(f"timestamp {cur.isoformat()} at row {i} goes backwards")
        missing, remainder = divmod(delta, stride)
        if remainder != timedelta(0):
            raise MisalignedTimestamp(
                f"timestamp {cur.isoformat()} at row {i} is off the epoch grid"
            )
        gaps.append(Gap(start=prev + stride, length=int(missing) - 1, after_index=i - 1))
    return gaps


def validate_series(series: EpochSeries) -> EpochSeries:
    """Confirm a strict one-epoch stride; return the series unchanged.

    Raises :class:`GapDetected` with the full gap report, or
    :class:`DuplicateTimestamp` / :class:`NonMonotone` /
    :class:`MisalignedTimestamp` on ordering problems.  Whole-minute
    alignment is enforced whenever the epoch length is a whole number of
    minutes.
    """
    if series.epoch_length.total_seconds() % 60 == 0:
        for i, e in enumerate(series.epochs):
            if e.timestamp.second != 0 or e.timestamp.microsecond != 0:
                raise MisalignedTimestamp(
                    f"timestamp {e.timestamp.isoformat()} at row {i} is not minute-aligned"
                )
    gaps = find_gaps(series)
    if gaps:
        raise GapDetected(gaps)
    return series


def fill_gaps(series: EpochSeries) -> tuple[EpochSeries, int]:
    """Insert zero-count, zero-step, inclinometer-off epochs into every gap.

    This is the opt-in ``sedentary-zero`` imputation policy.  The inserted
    epochs satisfy the default candidate-sleep predicate, so imputed spans
    can be scored as sleep; gaps are hard errors unless the caller asks for
    this.  Returns the filled series and the number of inserted epochs.
    """
    gaps = find_gaps(series)
    if not gaps:
        return series, 0
    stride = series.epoch_length
    out: list[Epoch] = []
    by_start = {g.after_index: g for g in gaps}
    for i, e in enumerate(series.epochs):
        out.append(e)
        g = by_start.get(i)
        if g is not None:
            for k in range(g.length):
                out.append(
                    Epoch(g.start + k * stride, 0, 0, 0, 0, Inclinometer.OFF)
                )
    filled = replace(series, epochs=tuple(out))
    return filled, sum(g.length for g in gaps)


def _majority_inclinometer(states: Iterable[Inclinometer]) -> Inclinometer:
    tally = [0, 0, 0, 0]
    for s in states:
        tally[int(s)] += 1
    best = max(tally)
    # ties break toward the lower enum value: off < standing < sitting < lying
    return Inclinometer(tally.index(best))


def aggregate_epochs(series: EpochSeries, factor: int) -> tuple[EpochSeries, int]:
    """Re-aggregate to blocks of `factor` epochs.

    Counts and steps are summed within each block; the block inclinometer is
    the most frequent state (ties toward the lower enum value); the block
    timestamp is its first member's.  A trailing remainder shorter than
    `factor` is dropped; the number of dropped epochs is returned alongside
    the new series.
    """
    if factor < 1:
        raise ZeroFactor(f"aggregation factor must be >= 1, got {factor}")
    if factor == 1:
        return series, 0
    n_blocks = len(series) // factor
    dropped = len(series) - n_blocks * factor
    blocks: list[Epoch] = []
    for b in range(n_blocks):
        members = series.epochs[b * factor : (b + 1) * factor]
        blocks.append(
            Epoch(
                timestamp=members[0].timestamp,
                axis1=sum(m.axis1 for m in members),
                axis2=sum(m.axis2 for m in members),
                axis3=sum(m.axis3 for m in members),
                steps=sum(m.steps for m in members),
                inclinometer=_majority_inclinometer(m.inclinometer for m in members),
            )
        )
    out = EpochSeries(tuple(blocks), series.epoch_length * factor, series.subject)
    return out, dropped
