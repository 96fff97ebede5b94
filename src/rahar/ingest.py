"""Epoch-level actigraphy ingestion.

Input files are minute-epoch exports from wrist-worn ActiGraph-style
devices: one row per epoch with triaxial activity counts, a step count,
and the post-processed inclinometer state.  This module parses those
files, validates that the series is a clean uniform grid, and re-aggregates
to coarser epochs when a different granularity is wanted.

A series is held as numpy columns (about 49 bytes per epoch), not as one
object per epoch; the grid checks, gap filling and aggregation are vector
operations on those columns.  An epoch CSV is read ``BLOCK_ROWS`` lines at a
time: a chunk in the form ``synth`` writes from its bytes, in one numpy pass, and
any other as csv records, a record at a time, so the first fault in file order is
reported; from a chunk with a ``"`` on, one csv reader reads the rest of the file.
``synth`` output parses at 1.1 µs a row on one core of a 2 vCPU Xeon (3.3 by csv).

Raw high-frequency waveforms are out of scope; the count computation is a
proprietary device-side step and ingestion starts at epoch counts.
"""

from __future__ import annotations

import csv
import io
import math
import re
import string
from array import array
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from enum import IntEnum
from itertools import chain, count, islice, repeat, starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

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

# csv records read at a time; 4,096 parsed 10% slower, the collector scanning more live rows
BLOCK_ROWS = 1024


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


# The cell rules of every input table, whose cells are padded with ASCII
# whitespace only.  ``int()`` and ``float()`` alone also read a sign on a count,
# ``_`` separators (``1_0`` is 10) and other scripts' digits (``١٢`` is 12).
PADDING = string.whitespace


def count_cell(cell: str, line_number: int, name: str, high: int = MAX_COUNT) -> int:
    """The count in the table cell ``name``, ASCII digits for an integer in [0, ``high``];
    a :class:`NegativeCount` or :class:`MalformedRow` naming ``line_number`` otherwise."""
    token = cell.strip(PADDING)
    try:
        if not (token.isascii() and token.isdigit()):  # the common case first
            # a "-" before ASCII digits is a negative count, unless they are zero
            digits = token[1:]
            if token[:1] != "-" or not (digits.isascii() and digits.isdigit() and digits.strip("0")):
                raise ValueError
        value = int(token)  # a ValueError too past int()'s 4,300-digit limit
    except ValueError:
        raise MalformedRow(line_number, f"{name} {token!r} is not an integer") from None
    if value < 0:
        raise NegativeCount(line_number, name, value)
    if value > high:
        raise MalformedRow(line_number, f"{name} {value} exceeds the ceiling of {high}")
    return value


def number_cell(cell: str, line_number: int, name: str, low=-math.inf, high=math.inf) -> float:
    """The number in the table cell ``name``, ASCII without ``_`` read by ``float()``, finite
    and in [``low``, ``high``]; a :class:`MalformedRow` naming ``line_number`` otherwise."""
    try:
        if not cell.isascii() or "_" in cell:
            raise ValueError
        value = float(cell)
    except ValueError:
        raise MalformedRow(line_number, f"bad {name} {cell!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_number, f"{name} {cell!r} is not a finite number")
    if not low <= value <= high:
        raise MalformedRow(line_number, f"{name} {cell!r} is outside [{low:g}, {high:g}]")
    return value


# The label rule of the dataset and eval tables: lowercase, and stripped of
# ASCII whitespace only, as every cell is.
_LABELS = {"poor": 0, "good": 1}
_EVAL_LABELS = {**_LABELS, "0": 0, "1": 1}


def label_cell(cell: str, line_number: int, numeric: bool = False) -> int:
    """The class in a label cell, 1 for ``good`` and 0 for ``poor`` (and with
    ``numeric``, for ``1`` and ``0``); a :class:`MalformedRow` naming
    ``line_number`` for any other token."""
    labels = _EVAL_LABELS if numeric else _LABELS
    token = cell.strip(PADDING)
    if token not in labels:
        message = "label must be good/poor or 0/1" if numeric else f"label {cell!r} is not good or poor"
        raise MalformedRow(line_number, message)
    return labels[token]


def read_blocks(
    stream: Iterable[str], header: list[str], kind: str = "", after: int = 0
) -> Iterator[tuple[list, list]]:
    """The non-empty records of a CSV table headed ``header``, each block of ``BLOCK_ROWS``
    csv records (blank ones too) as the physical lines its records start on and the records.
    A bad header (fields stripped as cells are) is a :class:`ParseError` naming the table
    ``kind``; a record of another width, or one the csv module cannot read, a
    :class:`MalformedRow` after the records before it.  Lines are numbered from ``after + 1``."""
    reader = csv.reader(stream)
    try:
        first = next(reader, None)
    except csv.Error as exc:
        raise MalformedRow(after + 1, str(exc)) from None
    if first is None and not kind:
        raise ParseError("empty input: missing header")
    if first is None or [h.strip(PADDING) for h in first] != header:
        raise ParseError(f"bad {kind}header {first!r}, expected {','.join(header)}")
    # each record with the line it ends on: a quoted field can span lines
    records = zip(reader, map(getattr, repeat(reader), repeat("line_num")))
    next_line, width = after + reader.line_num + 1, len(header)
    while True:
        block, lines, rows, fault = [], [], [], None
        try:
            block.extend(islice(records, BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:  # raised after the records before it
            fault = exc
        for row, end in block:
            if len(row) == width:
                lines.append(next_line)
                rows.append(row)
            elif row:
                fault = MalformedRow(next_line, f"expected {width} fields, got {len(row)}")
                break
            next_line = after + end + 1
        if rows:
            yield lines, rows
        if fault is not None:
            raise MalformedRow(next_line, str(fault)) if isinstance(fault, csv.Error) else fault
        if len(block) < BLOCK_ROWS:
            return


def read_table(stream: TextIO, header: list[str], kind: str = "") -> Iterator[tuple[int, list]]:
    """Each non-empty record of :func:`read_blocks`, with the physical line it starts on."""
    for lines, rows in read_blocks(stream, header, kind):
        yield from zip(lines, rows)


T = TypeVar("T")


def read_input(path: str | Path, parse: Callable[[Iterable[str]], T], fault: type = ParseError) -> T:
    """``parse(stream)`` of the input file ``path``, opened as UTF-8 (a leading
    byte-order mark dropped) with the csv module's ``newline=""``: the one place an
    input file is opened as text.  A file that cannot be opened is a :class:`ParseError`
    naming it.  The first fault in its contents (a byte that is not UTF-8, named by its
    line, or a :class:`ParseError` of ``parse``) is raised as its format's ``fault``."""
    try:
        stream = open(path, encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise ParseError(f"input {path} does not exist") from None
    except OSError as exc:
        raise ParseError(f"input {path}: {exc.strerror}") from None
    with stream:
        try:
            try:
                return parse(stream)
            except UnicodeDecodeError:  # decoded ahead of the lines parsed: parse again, a
                return parse(_decoded_lines(path))  # line at a time, so a fault before it comes first
        except UnicodeDecodeError as exc:
            raise fault(f"line {exc.line_number}: not UTF-8") from None
        except ParseError as exc:
            raise exc if isinstance(exc, fault) else fault(str(exc)) from None


def _decoded_lines(path: str | Path) -> Iterator[str]:
    """The lines of ``path`` as :func:`read_input` reads them, each decoded alone.  A line
    that is not UTF-8 raises its ``UnicodeDecodeError``, with the line's number set as
    ``line_number``."""
    number = 0
    with open(path, "rb") as fh:  # no UTF-8 sequence holds a CR or LF byte
        for chunk in fh:  # ended by LF; split again at CR, as newline="" splits
            for line in chunk.splitlines(keepends=True):
                number += 1
                try:
                    text = line.decode("utf-8-sig" if number == 1 else "utf-8")
                except UnicodeDecodeError as exc:
                    exc.line_number = number
                    raise
                yield text


def parse_epoch_csv(
    source: TextIO | str, *, epoch_length: timedelta = timedelta(seconds=60)
) -> EpochSeries:
    """Parse an epoch CSV into an :class:`EpochSeries`, preserving row order.

    The header must be exactly ``timestamp,axis1,axis2,axis3,steps,inclinometer``;
    a timestamp is ``YYYY-MM-DD``, ``T`` or a space, ``HH:MM:SS`` (``.`` and 1 to 6 digits
    or not), then ``Z`` or ``±HH:MM``, every field in range; inclinometer tokens
    are ``off|standing|sitting|lying`` in any letter case, and counts are ASCII digits
    for an integer in ``[0, MAX_COUNT]``.  Cells are stripped of ASCII whitespace only.
    A string is read as the same bytes in a file would be, byte-order mark and all.
    """
    if isinstance(source, str):  # a leading byte-order mark dropped, as read_input drops it
        source = io.StringIO(source.removeprefix("\ufeff"), newline="")
    head, blocks, stream = [*islice(source, 1)], [], source
    # another header, a '"' or a byte not UTF-8: one csv reader reads the rest of the file
    whole = "".join(head).rstrip("\r\n") != ",".join(CSV_HEADER)
    for after in count(0, BLOCK_ROWS):  # the lines between the header and the chunk
        chunk, rest = [], stream
        try:
            chunk.extend(islice(stream, BLOCK_ROWS))
        except UnicodeDecodeError as exc:  # raised after the lines before it
            rest = _raising(exc)
        whole = whole or rest is not stream or '"' in (text := "".join(chunk))
        columns = None if whole else _plain_columns(chunk, text)
        records = read_blocks(chain(head, chunk, rest if whole else ()), CSV_HEADER, after=after)
        blocks += [columns] if columns else starmap(_epoch_rows, records)
        if whole or len(chunk) < BLOCK_ROWS:
            break
    columns = map(np.concatenate, zip(*blocks)) if blocks else [()] * 4  # or none, empty
    return EpochSeries(*columns, epoch_length)


def _raising(fault: Exception) -> Iterator[str]:
    raise fault
    yield  # a generator: it raises when it is read


# The timestamp form that serialize_epoch_csv writes, read a column at a time
_CANONICAL = np.frombuffer(b"0000-00-00T00:00:00+00:00", np.uint8)
_DIGITS = np.flatnonzero(_CANONICAL == ord("0"))
_SEPARATORS = np.flatnonzero((_CANONICAL != ord("0")) & (_CANONICAL != ord("+")))
# each inclinometer token as 8 zero-padded bytes read as one word, and its code
_TOKEN_WORDS = np.array([*_INCLINOMETER_CODES], "S8").view(np.uint64)
_TOKEN_CODES = np.array([*_INCLINOMETER_CODES.values()], np.uint8)
# every timestamp form a record may hold, ASCII only; _canonical_instants range-checks it
_TIMESTAMP = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2})[T ]([0-9]{2}:[0-9]{2}:[0-9]{2})"
                        r"(?:\.([0-9]{1,6}))?(Z|[+-][0-9]{2}:[0-9]{2})?")


def _plain_columns(chunk: list[str], text: str) -> tuple | None:
    """The columns of ``chunk``, its lines joined in ``text``, if each is a canonical
    timestamp, four counts of 1 to 10 ASCII digits up to ``MAX_COUNT`` and a key of
    ``_INCLINOMETER_CODES``, ended by LF or CRLF; else None."""
    # its first line refuses a chunk at once, else a byte not ASCII, a lone CR or no last LF
    if text.find(",") != 25 or not text.isascii() or text.count("\n") != len(chunk):
        return None
    chars = np.frombuffer(text.encode(), np.uint8)
    ends, commas = np.flatnonzero(chars == 10), np.flatnonzero(chars == 44)
    if len(commas) != 5 * len(ends):
        return None
    commas = np.ascontiguousarray(commas.reshape(-1, 5).T, np.int32)  # a row per comma
    starts = commas[0] - 25  # each line starts with a 25-byte timestamp
    # the widths of the four counts and the token, and so five commas on each line
    widths = np.diff(commas, axis=0, append=[ends - (chars[ends - 1] == 13)]) - 1
    fits = (widths > 0) & (widths <= [[10], [10], [10], [10], [8]])
    if starts[0] or (starts[1:] != ends[:-1] + 1).any() or not fits.all():
        return None
    utc_us, offset_us, valid = _canonical_instants(chars.take(starts[:, None] + np.arange(25)))
    token = np.arange(1, 9)  # up to 8 bytes after the last comma, zeros past the token
    words = chars.take(commas[4, :, None] + token, mode="clip") * (token <= widths[4, :, None])
    known = words.view(np.uint64) == _TOKEN_WORDS  # a row per line, a column per token
    # each count right-aligned in as many digits as the widest has, zeros before it
    place = np.arange(-widths[:4].max(), 0, dtype=np.int32)[:, None, None]
    digits = (chars.take(commas[1:] + place) - np.uint8(48)) * (place >= -widths[:4])
    counts = digits[0].astype(np.int64)
    for row in digits[1:]:
        counts = counts * 10 + row
    if not valid.all() or not known.any(1).all() or digits.max() > 9 or counts.max() > MAX_COUNT:
        return None
    return utc_us, offset_us, counts.T, _TOKEN_CODES[known.argmax(1)]


def _canonical_instants(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """UTC and offset microseconds of (n, 25) timestamp bytes, and which are in form and range."""
    digits = chars[:, _DIGITS] - ord("0")  # uint8: a byte below "0" wraps past 9
    sign = 44 - chars[:, 19].astype(np.int64)  # "+" is byte 43 and "-" byte 45
    pairs = digits[:, 0::2].astype(np.int64) * 10 + digits[:, 1::2]
    year, month, day = pairs[:, 0] * 100 + pairs[:, 1], pairs[:, 2], pairs[:, 3]
    months = np.array((year - 1970) * 12 + month - 1, "datetime64[M]")
    first, after = np.array([months, months + 1], "datetime64[D]").view(np.int64)  # since 1970
    valid = (chars[:, _SEPARATORS] == _CANONICAL[_SEPARATORS]).all(1) & (digits <= 9).all(1)
    valid &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= after - first)
    valid &= (pairs[:, 4:] <= [23, 59, 59, 23, 59]).all(1) & (sign**2 == 1)
    local_s = (first + day - 1) * 86400 + pairs[:, 4:7] @ [3600, 60, 1]  # + hh:mm:ss
    offset_s = sign * (pairs[:, 7:] @ [3600, 60])
    return (local_s - offset_s) * 1_000_000, offset_s * 1_000_000, valid


def _epoch_rows(lines: list[int], rows: list[list[str]]) -> tuple:
    """The columns of a block of epoch records read a record at a time, faults in file order."""
    stamps, table, states = bytearray(), array("q"), bytearray()  # canonical 25-byte stamps,
    try:  # each record's microseconds past its second and four counts, inclinometer codes
        for line, (stamp, axis1, axis2, axis3, steps, token) in zip(lines, rows):
            match = _TIMESTAMP.fullmatch(stamp := stamp.strip(PADDING))
            if not match or not match[4]:
                fault = "timestamp {!r} has no UTC offset" if match else "bad timestamp {!r}"
                raise MalformedRow(line, fault.format(stamp))
            date, time, fraction, offset = match.groups()
            stamps += f"{date}T{time}{'+00:00' if offset == 'Z' else offset}".encode()
            table.extend((int((fraction or "0").ljust(6, "0")), count_cell(axis1, line, "axis1"),
                          count_cell(axis2, line, "axis2"), count_cell(axis3, line, "axis3"),
                          count_cell(steps, line, "steps")))
            token = token.strip(PADDING)
            code = _INCLINOMETER_CODES.get(token.upper())
            if code is None:
                raise UnknownInclinometer(line, token)
            states.append(code)
    finally:  # a timestamp out of range on a line up to a fault raised is raised in its place
        utc_us, offset_us, valid = _canonical_instants(np.frombuffer(stamps, (np.uint8, 25)))
        if not valid.all():
            i = valid.argmin()
            raise MalformedRow(lines[i], f"bad timestamp {rows[i][0].strip(PADDING)!r}") from None
    table = np.frombuffer(table, np.int64).reshape(-1, 5)
    return utc_us + table[:, 0], offset_us, table[:, 1:], np.frombuffer(states, np.uint8)


def read_timestamp(text: str) -> datetime:
    """``text`` read by the epoch CSV timestamp rule as an aware datetime; a fault names no line."""
    if not isinstance(text, str):
        raise TypeError(f"expected a timestamp string, got {text!r}")
    (utc_us,), (offset_us,), *_ = _epoch_rows([None], [[text, "0", "0", "0", "0", "off"]])
    return _aware(utc_us, offset_us)


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
