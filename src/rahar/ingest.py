"""Epoch-level actigraphy ingestion.

Input files are minute-epoch exports from wrist-worn ActiGraph-style
devices: one row per epoch with triaxial activity counts, a step count,
and the post-processed inclinometer state.  This module parses those
files, validates that the series is a clean uniform grid, and re-aggregates
to coarser epochs when a different granularity is wanted.

A series is held as numpy columns (about 49 bytes per epoch), not as one
object per epoch; the grid checks, gap filling and aggregation are vector
operations on those columns.

Raw high-frequency waveforms are out of scope; the count computation is a
proprietary device-side step and ingestion starts at epoch counts.
"""

from __future__ import annotations

import csv
import io
import math
import string
from array import array
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from enum import IntEnum
from typing import Iterator, TextIO

import numpy as np

from .errors import (
    DuplicateTimestamp,
    GapDetected,
    GapFillTooLarge,
    MalformedRow,
    MisalignedTimestamp,
    NegativeCount,
    NonMonotone,
    ParseError,
    UnknownInclinometer,
    ZeroFactor,
)

CSV_HEADER = ["timestamp", "axis1", "axis2", "axis3", "steps", "inclinometer"]

# Largest accepted count or step value per field.  Three squares of it sum
# below 2**63, so the vm3 magnitude of a parsed row is exact in int64, and
# int64 sums of it cannot overflow before a series holds billions of rows.
MAX_COUNT = 10**9
# largest count whose three squares still sum inside int64
_VM3_INT64_MAX = math.isqrt((2**63 - 1) // 3)

# The most epochs ``fill_gaps`` inserts into one file: about two years of
# minute epochs, or 51 MB of columns.  Gaps that long point to a clock
# fault more than to missing wear, and without a cap two rows a century
# apart would ask for gigabytes.
MAX_FILLED_EPOCHS = 2**20


def vm3(counts: np.ndarray) -> np.ndarray:
    """Triaxial vector magnitude of each row of (N, 3+) int64 ``counts``.

    The exact integer sum of squares rounded once, as
    ``math.sqrt(a1**2 + a2**2 + a3**2)`` does.  Aggregated sums can exceed
    ``MAX_COUNT``; where their squares would overflow int64 the sum is taken
    in Python integers.
    """
    xyz = counts[:, :3]
    if len(xyz) and xyz.max() > _VM3_INT64_MAX:
        return np.sqrt([float(v) for v in (xyz.astype(object) ** 2).sum(axis=1)])
    return np.sqrt((xyz * xyz).sum(axis=1).astype(float))

_US = timedelta(microseconds=1)
_MINUTE_US = 60_000_000
_UTC_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_LOCAL_EPOCH = datetime(1970, 1, 1)


class Inclinometer(IntEnum):
    """Device posture output.  Enum order doubles as the aggregation tie-break."""

    OFF = 0
    STANDING = 1
    SITTING = 2
    LYING = 3

    @property
    def token(self) -> str:
        return self.name.lower()


# upper-case names as the parser matches them, plus the canonical tokens
_INCLINOMETER_CODES = {key: int(s) for s in Inclinometer for key in (s.name, s.token)}


@dataclass(frozen=True)
class Epoch:
    """One epoch as a row object; ``series[i]`` builds it on demand."""

    timestamp: datetime
    axis1: int
    axis2: int
    axis3: int
    steps: int
    inclinometer: Inclinometer

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.axis1, self.axis2, self.axis3)


def _aware(utc_us: int, offset_us: int) -> datetime:
    """The instant ``utc_us`` written in its own UTC offset."""
    local = _LOCAL_EPOCH + timedelta(microseconds=int(utc_us) + int(offset_us))
    return local.replace(tzinfo=timezone(timedelta(microseconds=int(offset_us))))


def split_instant(ts: datetime) -> tuple[int, int]:
    """An aware datetime as (UTC microseconds since 1970, UTC offset in microseconds)."""
    return (ts - _UTC_EPOCH) // _US, ts.utcoffset() // _US


@dataclass(frozen=True, eq=False)
class EpochSeries:
    """An ordered epoch sequence with a constant stride, held as columns.

    ``utc_us`` is each epoch's instant in UTC microseconds since 1970,
    ``offset_us`` the UTC offset its timestamp was written in (DST can
    change it from row to row), ``counts`` the (N, 4) int64 axis1, axis2,
    axis3 and steps, and ``inclinometer`` the uint8 :class:`Inclinometer`
    codes.  Construction does not validate the stride; run
    :func:`validate_series` before feeding a series to downstream stages.
    It holds no subject data: the age is an argument of ``classify_series``.
    """

    utc_us: np.ndarray
    offset_us: np.ndarray
    counts: np.ndarray
    inclinometer: np.ndarray
    epoch_length: timedelta = timedelta(seconds=60)

    def __post_init__(self):
        columns = {"utc_us": np.int64, "offset_us": np.int64, "inclinometer": np.uint8}
        for name, dtype in columns.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64).reshape(-1, 4))
        lengths = [len(self.utc_us), len(self.offset_us), len(self.counts), len(self.inclinometer)]
        if len(set(lengths)) > 1:
            raise ValueError(
                f"column lengths disagree: {lengths} (utc_us, offset_us, counts, inclinometer)"
            )

    def __eq__(self, other) -> bool:
        """Equal columns (offsets included) and epoch length."""
        if not isinstance(other, EpochSeries):
            return NotImplemented
        columns = ("utc_us", "offset_us", "counts", "inclinometer")
        return self.epoch_length == other.epoch_length and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in columns
        )

    def __len__(self) -> int:
        return len(self.utc_us)

    def __getitem__(self, i: int) -> Epoch:
        axis1, axis2, axis3, steps = self.counts[i].tolist()
        return Epoch(
            self.timestamp(i), axis1, axis2, axis3, steps, Inclinometer(int(self.inclinometer[i]))
        )

    @property
    def epoch_minutes(self) -> float:
        return self.epoch_length.total_seconds() / 60.0

    def timestamp(self, i: int) -> datetime:
        """Epoch ``i``'s timestamp, rebuilt in the UTC offset it was written in."""
        return _aware(self.utc_us[i], self.offset_us[i])


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
    if value.tzinfo is None:
        raise MalformedRow(line_number, f"timestamp {token!r} has no UTC offset")
    return value


def _parse_count(token: str, name: str, line_number: int) -> int:
    try:
        # a "-" before ASCII digits is a negative count, unless they are zero
        if not is_count(token) and not (
            token[:1] == "-" and is_count(token[1:]) and token[1:].strip("0")
        ):
            raise ValueError
        value = int(token)  # a ValueError too past int()'s 4,300-digit limit
    except ValueError:
        raise MalformedRow(line_number, f"{name} {token!r} is not an integer") from None
    if value < 0:
        raise NegativeCount(line_number, name, value)
    if value > MAX_COUNT:
        raise MalformedRow(line_number, f"{name} {value} exceeds the ceiling of {MAX_COUNT}")
    return value


# The number rule of every input table.  ``int()`` and ``float()`` alone
# also read a sign on a count, ``_`` separators (``1_0`` is 10) and the
# digits of other scripts (Arabic-Indic ``١٢`` is 12).
def is_count(cell: str) -> bool:
    """True when ``cell`` is one or more ASCII digits."""
    return cell.isascii() and cell.isdigit()


def is_plain_number(cell: str) -> bool:
    """True when ``cell`` may be read by ``float()``: ASCII, without ``_``."""
    return cell.isascii() and "_" not in cell


# The label rule of the dataset and eval tables: lowercase, and stripped of
# ASCII whitespace only, as epoch cells are.
_LABELS = {"poor": 0, "good": 1}
_EVAL_LABELS = {**_LABELS, "0": 0, "1": 1}


def label_cell(cell: str, line_number: int, numeric: bool = False) -> int:
    """The class in a label cell, 1 for ``good`` and 0 for ``poor`` (and with
    ``numeric``, for ``1`` and ``0``); a :class:`MalformedRow` naming
    ``line_number`` for any other token."""
    labels = _EVAL_LABELS if numeric else _LABELS
    token = cell.strip(string.whitespace)
    if token not in labels:
        message = "label must be good/poor or 0/1" if numeric else f"label {cell!r} is not good or poor"
        raise MalformedRow(line_number, message)
    return labels[token]


def read_table(stream: TextIO, header: list[str], kind: str = "") -> Iterator[tuple[int, list]]:
    """Each non-empty record of a CSV table headed ``header``, with the physical
    line it starts on.  Header fields are stripped of ASCII whitespace only, as
    cells are.  A bad header is a :class:`ParseError` naming the table
    ``kind`` (``"eval "``: bad eval header), and a record of another width a
    :class:`MalformedRow`, as is a record the csv module cannot read."""
    reader = csv.reader(stream)
    next_line = 1
    try:
        first = next(reader, None)
        if first is None and not kind:
            raise ParseError("empty input: missing header")
        if first is None or [h.strip(string.whitespace) for h in first] != header:
            raise ParseError(f"bad {kind}header {first!r}, expected {','.join(header)}")
        next_line = reader.line_num + 1  # a quoted field can span lines
        for row in reader:
            line_number, next_line = next_line, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRow(line_number, f"expected {len(header)} fields, got {len(row)}")
            yield line_number, row
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRow(next_line, str(exc)) from None


def parse_epoch_csv(
    source: TextIO | str, *, epoch_length: timedelta = timedelta(seconds=60)
) -> EpochSeries:
    """Parse an epoch CSV into an :class:`EpochSeries`, preserving row order.

    The header must be exactly ``timestamp,axis1,axis2,axis3,steps,inclinometer``;
    timestamps are ISO-8601 with an explicit UTC offset, inclinometer tokens
    are lowercase ``off|standing|sitting|lying``, and counts are ASCII digits
    for an integer in ``[0, MAX_COUNT]``.  Cells are stripped of ASCII whitespace only.
    """
    text = io.StringIO(source) if isinstance(source, str) else source
    utc_us, offset_us, counts = array("q"), array("q"), array("q")
    states = bytearray()
    space = string.whitespace
    for line_number, row in read_table(text, CSV_HEADER):
        instant, offset = split_instant(_parse_timestamp(row[0].strip(space), line_number))
        utc_us.append(instant)
        offset_us.append(offset)
        counts.append(_parse_count(row[1].strip(space), "axis1", line_number))
        counts.append(_parse_count(row[2].strip(space), "axis2", line_number))
        counts.append(_parse_count(row[3].strip(space), "axis3", line_number))
        counts.append(_parse_count(row[4].strip(space), "steps", line_number))
        token = row[5].strip(space)
        code = _INCLINOMETER_CODES.get(token.upper())
        if code is None:
            raise UnknownInclinometer(line_number, token)
        states.append(code)
    return EpochSeries(
        np.frombuffer(utc_us, np.int64),
        np.frombuffer(offset_us, np.int64),
        np.frombuffer(counts, np.int64),
        np.frombuffer(states, np.uint8),
        epoch_length,
    )


def serialize_epoch_csv(series: EpochSeries, stream: TextIO) -> None:
    """Write a series back to the canonical CSV format (parse round-trips)."""
    # each timestamp as datetime.isoformat writes it in its own offset: the
    # wall-clock time, then the offset's suffix, built once per distinct offset
    wall = (series.utc_us + series.offset_us).astype("datetime64[us]").astype(object)
    suffix = {
        off: _aware(-off, off).isoformat()[len("1970-01-01T00:00:00") :]
        for off in np.unique(series.offset_us).tolist()
    }
    tokens = [state.token for state in Inclinometer]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        [ts.isoformat() + suffix[off], *counts, tokens[state]]
        for ts, off, counts, state in zip(
            wall, series.offset_us.tolist(), series.counts.tolist(), series.inclinometer.tolist()
        )
    )


def _gap_rows(series: EpochSeries) -> tuple[np.ndarray, np.ndarray]:
    """Rows followed by a gap, and how many epochs each gap misses.

    Raises on the first row that is a duplicate, goes backwards or lies
    off the epoch grid, because a gap report is meaningless there.
    """
    stride = series.epoch_length // _US
    delta = np.diff(series.utc_us)
    jump = np.flatnonzero(delta != stride)
    bad = (delta[jump] <= 0) | (delta[jump] % stride != 0)
    if bad.any():
        i = int(jump[np.argmax(bad)]) + 1
        cur = series.timestamp(i).isoformat()
        if delta[i - 1] == 0:
            raise DuplicateTimestamp(f"duplicate timestamp {cur} at row {i}")
        if delta[i - 1] < 0:
            raise NonMonotone(f"timestamp {cur} at row {i} goes backwards")
        raise MisalignedTimestamp(f"timestamp {cur} at row {i} is off the epoch grid")
    return jump, delta[jump] // stride - 1


def find_gaps(series: EpochSeries) -> list[Gap]:
    """Locate missing-epoch runs without raising.

    Raises :class:`NonMonotone` / :class:`DuplicateTimestamp` /
    :class:`MisalignedTimestamp` at the first such row instead, because a
    gap report is meaningless on an unordered series.  Each gap's start
    is written in the offset of the epoch before it.
    """
    after, missing = _gap_rows(series)
    return [
        Gap(series.timestamp(i) + series.epoch_length, n, i)
        for i, n in zip(after.tolist(), missing.tolist())
    ]


def validate_series(series: EpochSeries) -> EpochSeries:
    """Confirm a strict one-epoch stride; return the series unchanged.

    Raises :class:`GapDetected` with the full gap report, or
    :class:`DuplicateTimestamp` / :class:`NonMonotone` /
    :class:`MisalignedTimestamp` on ordering problems.  Whole-minute
    alignment of the local (written) time is enforced whenever the epoch
    length is a whole number of minutes.
    """
    if series.epoch_length.total_seconds() % 60 == 0:
        off_minute = (series.utc_us + series.offset_us) % _MINUTE_US != 0
        if off_minute.any():
            i = int(np.argmax(off_minute))
            raise MisalignedTimestamp(
                f"timestamp {series.timestamp(i).isoformat()} at row {i} is not minute-aligned"
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
    this.  An inserted epoch keeps the UTC offset of the epoch before it.
    Returns the filled series and the number of inserted epochs.

    Raises :class:`GapFillTooLarge`, before allocating anything, when the
    gaps miss more than ``MAX_FILLED_EPOCHS`` epochs in all.
    """
    after, missing = _gap_rows(series)
    if not len(after):
        return series, 0
    total = int(missing.sum())
    if total > MAX_FILLED_EPOCHS:
        raise GapFillTooLarge(
            f"gaps miss {total} epochs, more than the {MAX_FILLED_EPOCHS} gap filling may insert"
        )
    run = np.ones(len(series), dtype=np.int64)  # each row plus the epochs inserted after it
    run[after] += missing
    source = np.repeat(np.arange(len(series)), run)
    step = np.arange(len(source)) - np.repeat(np.cumsum(run) - run, run)
    inserted = step > 0
    counts = series.counts[source]
    counts[inserted] = 0
    states = series.inclinometer[source]
    states[inserted] = Inclinometer.OFF
    filled = replace(
        series,
        utc_us=series.utc_us[source] + step * (series.epoch_length // _US),
        offset_us=series.offset_us[source],
        counts=counts,
        inclinometer=states,
    )
    return filled, total


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
    kept = n_blocks * factor
    states = series.inclinometer[:kept].reshape(n_blocks, factor)
    tally = np.stack([(states == s).sum(axis=1) for s in Inclinometer], axis=1)
    out = EpochSeries(
        np.ascontiguousarray(series.utc_us[:kept:factor]),
        np.ascontiguousarray(series.offset_us[:kept:factor]),
        series.counts[:kept].reshape(n_blocks, factor, 4).sum(axis=1),
        tally.argmax(axis=1),  # the first maximum: ties go to the lower state
        series.epoch_length * factor,
    )
    return out, len(series) - kept
