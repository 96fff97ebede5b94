from __future__ import annotations

import io
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rahar import ingest
from rahar.cli import _read_scored
from rahar.errors import (
    DuplicateTimestamp,
    GapDetected,
    GapFillTooLarge,
    InvalidScale,
    MalformedRow,
    NegativeCount,
    NonMonotone,
    ParseError,
    UnknownInclinometer,
    ValidationError,
    ZeroFactor,
)
from rahar.cutpoints import builtin_troiano_scale, classify_series, load_scale_file, make_scale
from rahar.features import DATASET_HEADER, read_dataset_csv
from rahar.ingest import (
    MAX_COUNT,
    MAX_FILLED_EPOCHS,
    EpochSeries,
    Inclinometer,
    aggregate_epochs,
    fill_gaps,
    find_gaps,
    parse_epoch_csv,
    read_input,
    read_timestamp,
    serialize_epoch_csv,
    validate_series,
)

from conftest import make_series
from oracles import epoch_at, epochs_of, ref_parse, series_of

HEADER = "timestamp,axis1,axis2,axis3,steps,inclinometer\n"
CSV_HEADER_FIELDS = HEADER.strip().split(",")


def csv_text(rows: list[str]) -> str:
    return HEADER + "".join(r + "\n" for r in rows)


class TestParse:
    def test_single_row_maps_fields(self):
        series = parse_epoch_csv(csv_text(["2014-09-01T22:00:00+03:00,0,0,0,0,lying"]))
        epoch = epoch_at(series, 0)
        assert epoch.counts == (0, 0, 0)
        assert epoch.steps == 0
        assert epoch.inclinometer is Inclinometer.LYING
        assert epoch.timestamp.isoformat() == "2014-09-01T22:00:00+03:00"

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeCount) as info:
            parse_epoch_csv(csv_text(["2014-09-01T22:00:00+03:00,-5,0,0,0,off"]))
        assert info.value.line_number == 2

    def test_full_day_cardinality(self):
        day = make_series([1] * 1440)
        buf = io.StringIO()
        serialize_epoch_csv(day, buf)
        series = parse_epoch_csv(buf.getvalue())
        assert len(series) == 1440
        assert validate_series(series) is series

    def test_unknown_inclinometer(self):
        with pytest.raises(UnknownInclinometer):
            parse_epoch_csv(csv_text(["2014-09-01T22:00:00+03:00,0,0,0,0,prone"]))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_epoch_csv("time,ax1\n")

    def test_malformed_row_reports_line(self):
        text = csv_text(
            ["2014-09-01T22:00:00+03:00,0,0,0,0,off", "2014-09-01T22:01:00+03:00,x,0,0,0,off"]
        )
        with pytest.raises(MalformedRow) as info:
            parse_epoch_csv(text)
        assert info.value.line_number == 3

    def test_record_spanning_lines_names_physical_line(self):
        # the quoted "0\n" field of line 2 runs onto line 3; the bad row is line 4
        text = HEADER + (
            '2014-09-01T22:00:00+03:00,"0\n",0,0,0,off\n'
            "2014-09-01T22:01:00+03:00,x,0,0,0,off\n"
        )
        with pytest.raises(MalformedRow) as info:
            parse_epoch_csv(text)
        assert str(info.value) == "line 4: axis1 'x' is not an integer"

    def test_zulu_suffix_means_utc(self):
        series = parse_epoch_csv(csv_text(["2014-09-01T22:00:00Z,0,0,0,0,off"]))
        assert epoch_at(series, 0).timestamp.utcoffset() == timedelta(0)

    def test_naive_timestamp_rejected(self):
        with pytest.raises(MalformedRow) as info:
            parse_epoch_csv(csv_text(["2014-09-01T22:00:00,0,0,0,0,off"]))
        assert info.value.line_number == 2
        assert "UTC offset" in str(info.value)

    def test_mixed_naive_and_offset_rejected_at_first_naive_row(self):
        text = csv_text(
            [
                "2014-09-01T22:00:00+03:00,0,0,0,0,off",
                "2014-09-01T22:01:00+03:00,0,0,0,0,off",
                "2014-09-01T22:02:00,0,0,0,0,off",
            ]
        )
        with pytest.raises(MalformedRow) as info:
            parse_epoch_csv(text)
        assert info.value.line_number == 4

    def test_round_trip_identity(self):
        series = make_series(
            [
                {"axis1": 5, "axis2": 1, "steps": 2, "inclinometer": Inclinometer.SITTING},
                {"axis1": 0},
                {"axis1": 7, "inclinometer": Inclinometer.LYING},
            ]
        )
        buf = io.StringIO()
        serialize_epoch_csv(series, buf)
        again = parse_epoch_csv(buf.getvalue())
        assert epochs_of(again) == epochs_of(series)


def test_series_columns_of_different_lengths_rejected():
    # 60 rows of three count columns would reshape into 45 rows of four
    utc_us = np.arange(60, dtype=np.int64) * 60_000_000
    with pytest.raises(ValueError, match=r"column lengths disagree.*\[60, 60, 45, 60\]"):
        EpochSeries(utc_us, np.zeros(60), np.ones((60, 3)), np.zeros(60))


class TestCountCeiling:
    def test_ceiling_accepted_and_vm3_exact(self):
        row = f"2014-09-01T22:00:00+03:00,{MAX_COUNT},{MAX_COUNT - 1},{MAX_COUNT},{MAX_COUNT},off"
        series = parse_epoch_csv(csv_text([row]))
        assert epoch_at(series, 0).counts == (MAX_COUNT, MAX_COUNT - 1, MAX_COUNT)
        assert epoch_at(series, 0).steps == MAX_COUNT
        # a custom band whose light/moderate edge sits just above the exact magnitude
        vm3 = math.sqrt(MAX_COUNT**2 + (MAX_COUNT - 1) ** 2 + MAX_COUNT**2)
        scale = make_scale("edge", [(0, 130, 1, math.floor(vm3) - 1, math.floor(vm3) + 1)])
        assert classify_series(series, scale, signal="vm3").tolist() == [2]
        assert classify_series(series, builtin_troiano_scale(), signal="vm3").tolist() == [3]

    @pytest.mark.parametrize("field", [1, 2, 3, 4])
    @pytest.mark.parametrize("value", [MAX_COUNT + 1, 99999999999999999999999])
    def test_above_ceiling_is_malformed_row(self, field, value):
        fields = ["2014-09-01T22:00:00+03:00", "0", "0", "0", "0", "off"]
        fields[field] = str(value)
        text = csv_text(["2014-09-01T21:59:00+03:00,0,0,0,0,off", ",".join(fields)])
        with pytest.raises(MalformedRow) as info:
            parse_epoch_csv(text)
        assert info.value.line_number == 3
        assert str(info.value) == (
            f"line 3: {CSV_HEADER_FIELDS[field]} {value} exceeds the ceiling of {MAX_COUNT}"
        )


class TestValidate:
    def test_contiguous_passes(self):
        series = make_series([0] * 100)
        assert validate_series(series) is series

    def test_missing_minute_reports_gap(self):
        series = make_series([0] * 100)
        epochs = epochs_of(series)
        broken = series_of(epochs[:50] + epochs[51:], series.epoch_length)
        with pytest.raises(GapDetected) as info:
            validate_series(broken)
        (gap,) = info.value.gaps
        assert gap.start == epochs[50].timestamp
        assert gap.length == 1

    def test_duplicate_timestamp(self):
        series = make_series([0] * 10)
        epochs = epochs_of(series)
        broken = series_of(epochs + (epochs[-1],), series.epoch_length)
        with pytest.raises(DuplicateTimestamp):
            validate_series(broken)

    def test_non_monotone(self):
        series = make_series([0] * 10)
        epochs = epochs_of(series)
        broken = series_of((epochs[5],) + epochs, series.epoch_length)
        with pytest.raises(NonMonotone):
            validate_series(broken)

    def test_fill_gaps_restores_grid(self):
        series = make_series([3] * 100)
        epochs = epochs_of(series)
        broken = series_of(epochs[:50] + epochs[60:], series.epoch_length)
        filled, inserted = fill_gaps(broken)
        assert inserted == 10
        assert validate_series(filled) is filled
        assert epoch_at(filled, 55).counts == (0, 0, 0)
        assert epoch_at(filled, 55).inclinometer is Inclinometer.OFF
        assert not find_gaps(filled)

    @staticmethod
    def two_rows(missing: int):
        start = datetime(2014, 9, 1, 22, 0, tzinfo=timezone.utc)
        end = start + timedelta(minutes=missing + 1)
        return parse_epoch_csv(
            csv_text([f"{start.isoformat()},1,0,0,0,off", f"{end.isoformat()},2,0,0,0,off"])
        )

    def test_fill_gaps_inserts_up_to_the_cap(self):
        filled, inserted = fill_gaps(self.two_rows(MAX_FILLED_EPOCHS))
        assert inserted == MAX_FILLED_EPOCHS
        assert len(filled) == MAX_FILLED_EPOCHS + 2
        assert filled.counts[-1, 0] == 2

    def test_fill_gaps_refuses_past_the_cap(self):
        with pytest.raises(GapFillTooLarge) as info:
            fill_gaps(self.two_rows(MAX_FILLED_EPOCHS + 1))
        assert isinstance(info.value, ValidationError)
        assert str(MAX_FILLED_EPOCHS + 1) in str(info.value)


class TestAggregate:
    def test_factor_one_is_identity(self):
        series = make_series([1, 2, 3])
        out, dropped = aggregate_epochs(series, 1)
        assert out is series and dropped == 0

    def test_sum_of_sixty(self):
        series = make_series([1] * 60)
        out, dropped = aggregate_epochs(series, 60)
        assert len(out) == 1 and dropped == 0
        assert epoch_at(out, 0).axis1 == 60
        assert out.epoch_length == timedelta(hours=1)
        assert epoch_at(out, 0).timestamp == epoch_at(series, 0).timestamp

    def test_remainder_dropped_with_count(self):
        series = make_series([1] * 10)
        out, dropped = aggregate_epochs(series, 3)
        assert len(out) == 3 and dropped == 1

    def test_zero_factor(self):
        with pytest.raises(ZeroFactor):
            aggregate_epochs(make_series([1]), 0)

    def test_inclinometer_majority_and_tie(self):
        series = make_series(
            [
                {"inclinometer": Inclinometer.LYING},
                {"inclinometer": Inclinometer.LYING},
                {"inclinometer": Inclinometer.SITTING},
                {"inclinometer": Inclinometer.SITTING},
            ]
        )
        out, _ = aggregate_epochs(series, 4)
        # 2-2 tie breaks toward the lower enum value
        assert epoch_at(out, 0).inclinometer is Inclinometer.SITTING

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200),
        factor=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_preservation_and_validity(self, counts, factor):
        series = make_series(counts)
        out, dropped = aggregate_epochs(series, factor)
        kept = len(counts) - dropped
        assert sum(e.axis1 for e in epochs_of(out)) == sum(counts[:kept])
        if len(out):
            assert validate_series(out) is out


# Every CSV reader reads through read_input with newline="", as the csv module asks:
# a table with CRLF line ends reads as with LF, and a fault names the same line.
CSV_TABLES = {
    "epoch": ("timestamp,axis1,axis2,axis3,steps,inclinometer\n"
              "2014-09-01T22:00:00+00:00,5,0,1,2,sitting\n2014-09-01T22:01:00+00:00,0,0,0,0,off\n",
              "2014-09-01T22:02:00+00:00,x,0,0,0,off\n"),
    "dataset": (",".join(DATASET_HEADER) + "\ns0,0.7,0.1,0.1,0.1,100.0,0.9,good\n"
                "s1,0.1,0.7,0.1,0.1,50.0,0.5,poor\n", "s2,x,0.1,0.1,0.1,1.0,0.5,poor\n"),
    "scale": ("age_min,age_max,sedentary_max,light_max,moderate_max\n0,17,99,1999,4999\n"
              "18,130,99,2019,5998\n", "131,x,99,2019,5998\n"),
    "eval": ("score,label\n0.9,good\n0.2,poor\n0.4,1\n", "x,good\n"),
}


def _read_table_file(kind: str, path):
    """What the ``kind`` reader makes of the file ``path``, in comparable form."""
    if kind == "epoch":
        series = read_input(path, parse_epoch_csv)
        return series.utc_us.tolist(), series.counts.tolist(), series.inclinometer.tolist()
    if kind == "dataset":
        ds = read_input(path, read_dataset_csv)
        return ds.segment_ids, ds.X.tolist(), ds.y.tolist(), ds.awake_minutes.tolist()
    if kind == "scale":
        return load_scale_file(path, "scale")
    return read_input(path, _read_scored)


@pytest.mark.parametrize("kind", CSV_TABLES)
def test_crlf_line_ends_read_as_lf(kind, tmp_path):
    good, bad_row = CSV_TABLES[kind]
    results, faults = [], []
    for end in ("\n", "\r\n"):
        path = tmp_path / f"{len(end)}.csv"
        path.write_bytes(good.replace("\n", end).encode())
        results.append(_read_table_file(kind, path))
        path.write_bytes((good + bad_row).replace("\n", end).encode())
        with pytest.raises((ParseError, InvalidScale)) as caught:
            _read_table_file(kind, path)
        faults.append(str(caught.value))
    assert results[0] == results[1]
    assert faults[0] == faults[1] and faults[0].startswith(f"line {good.count(chr(10)) + 1}: ")


@pytest.mark.parametrize("kind", CSV_TABLES)
def test_a_byte_order_mark_is_dropped(kind, tmp_path):
    # as a spreadsheet's "CSV UTF-8" export begins; a second mark stays in the header
    good = CSV_TABLES[kind][0]
    results = []
    for prefix in ("", "\ufeff", "\ufeff\ufeff"):
        path = tmp_path / f"{len(prefix)}.csv"
        path.write_bytes((prefix + good).encode())
        try:
            results.append(_read_table_file(kind, path))
        except (ParseError, InvalidScale) as exc:
            results.append(str(exc))
    assert results[1] == results[0]
    assert "bad " in results[2] and "header" in results[2]


# parse_epoch_csv reads a string as read_input reads the same bytes from a file:
# with the csv module's newline="", so a carriage return ends a line, or stays
# in a quoted cell, alike in both
LINE_END_CASES = {
    "cr-only": HEADER + "2014-09-01T22:00:00+00:00,5,0,1,2,sitting\n",
    "crlf": HEADER + "2014-09-01T22:00:00+00:00,5,0,1,2,sitting\n",
    "quoted-cr": HEADER + '2014-09-01T22:00:00+00:00,"0\r",0,1,2,sitting\n',
    "quoted-crlf": HEADER + '2014-09-01T22:00:00+00:00,"0\r\n",0,1,2,sitting\n',
    "bom": "\ufeff" + HEADER + "2014-09-01T22:00:00+00:00,5,0,1,2,sitting\n",
}


def _outcome(read):
    try:
        series = read()
    except ParseError as exc:
        return type(exc), str(exc)
    return series.utc_us.tolist(), series.counts.tolist(), series.inclinometer.tolist()


@pytest.mark.parametrize("end", LINE_END_CASES)
@pytest.mark.parametrize("bad_row", ["", "2014-09-01T22:01:00+00:00,x,0,0,0,off\n"],
                         ids=["good", "bad-row"])
def test_a_string_parses_as_the_same_bytes_in_a_file(end, bad_row, tmp_path):
    text = LINE_END_CASES[end] + bad_row
    if end == "cr-only":
        text = text.replace("\n", "\r")
    elif end == "crlf":
        text = text.replace("\n", "\r\n")
    path = tmp_path / "rec.csv"
    path.write_bytes(text.encode())
    from_file = _outcome(lambda: read_input(path, parse_epoch_csv))
    assert _outcome(lambda: parse_epoch_csv(text)) == from_file
    if bad_row:
        quoted_lines = 2 if end.startswith("quoted") else 1
        assert from_file == (MalformedRow, f"line {2 + quoted_lines}: axis1 'x' is not an integer")
    else:
        assert from_file[1] == [[5 if end in ("cr-only", "crlf", "bom") else 0, 0, 1, 2]]


def test_a_bad_cell_comes_before_a_later_byte_that_is_not_utf8(tmp_path):
    # the reader reads a block of records ahead; the first fault in the file is reported
    rows = [f"2014-09-01T{m // 60:02d}:{m % 60:02d}:00+00:00,0,0,0,0,off".encode() for m in range(600)]
    rows[1] = rows[1].replace(b",0,0,0,0,", b",x,0,0,0,")
    rows[400] = rows[400].replace(b"off", b"\xe9t\xe9")  # line 402, about 16 kB on
    path = tmp_path / "rec.csv"
    path.write_bytes(HEADER.encode() + b"".join(row + b"\n" for row in rows))
    with pytest.raises(MalformedRow) as info:
        read_input(path, parse_epoch_csv)
    assert str(info.value) == "line 3: axis1 'x' is not an integer"


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_a_bad_cell_in_the_chunk_decoded_with_a_byte_that_is_not_utf8(tmp_path, end):
    # the decoder reads 8 kB at a time, so it meets line 402's byte before lines 217-401
    # are handed out; line 302's cell is still the fault reported, as the first in the file
    rows = [f"2014-09-01T{m // 60:02d}:{m % 60:02d}:00+00:00,0,0,0,0,off".encode() for m in range(600)]
    rows[300] = rows[300].replace(b",0,0,0,0,", b",x,0,0,0,")  # line 302
    rows[400] = rows[400].replace(b"off", b"\xe9t\xe9")  # line 402
    path = tmp_path / "rec.csv"
    path.write_bytes(end.join([HEADER.rstrip("\n").encode(), *rows, b""]))
    with pytest.raises(MalformedRow) as info:
        read_input(path, parse_epoch_csv)
    assert str(info.value) == "line 302: axis1 'x' is not an integer"
    # with no bad cell the byte is the fault
    rows[300] = rows[299]
    path.write_bytes(end.join([HEADER.rstrip("\n").encode(), *rows, b""]))
    with pytest.raises(ParseError) as info:
        read_input(path, parse_epoch_csv)
    assert str(info.value) == "line 402: not UTF-8"


def test_a_bad_cell_before_a_byte_that_is_not_utf8_in_another_table(tmp_path):
    path = tmp_path / "scored.csv"
    path.write_bytes(b"score,label\n0.5,1\nx,1\n0.5,\xe9\n")
    with pytest.raises(MalformedRow) as info:
        read_input(path, _read_scored)
    assert str(info.value) == "line 3: bad score 'x'"


# Every timestamp form, and what it reads as: the timestamp written back in its own
# offset, or the parse fault. One rule reads all of them whatever the Python version.
BAD = "bad timestamp {!r}"
TIMESTAMP_FORMS = [
    ("2014-09-01T22:00:00+00:00", "2014-09-01T22:00:00+00:00"),
    ("2014-09-01T22:00:00Z", "2014-09-01T22:00:00+00:00"),
    ("2014-09-01 22:00:00+03:00", "2014-09-01T22:00:00+03:00"),
    ("2014-09-01T22:00:00.5Z", "2014-09-01T22:00:00.500000+00:00"),
    ("2014-09-01T22:00:00.123456+00:00", "2014-09-01T22:00:00.123456+00:00"),
    (" \t2014-09-01T22:00:00Z\x0b ", "2014-09-01T22:00:00+00:00"),
    ("2014-09-01T22:00:00-05:30", "2014-09-01T22:00:00-05:30"),
    ("2014-09-01T22:00:00+14:00", "2014-09-01T22:00:00+14:00"),
    ("2014-09-01T22:00:00-00:00", "2014-09-01T22:00:00+00:00"),
    ("2016-02-29T23:59:59-23:59", "2016-02-29T23:59:59-23:59"),
    ("0001-01-01T00:00:00+05:00", "0001-01-01T00:00:00+05:00"),
    ("9999-12-31T23:59:59-05:00", "9999-12-31T23:59:59-05:00"),
    ("2014-09-01T22:00:00", "timestamp '2014-09-01T22:00:00' has no UTC offset"),
    ("2014-09-01 22:00:00.5", "timestamp '2014-09-01 22:00:00.5' has no UTC offset"),
    ("2014-09-01T22:00:00z", BAD),
    ("2014-09-01t22:00:00Z", BAD),
    ("20140901T220000+0000", BAD),
    ("2014-09-01T22:00:00+0000", BAD),
    ("2014-W36-1T22:00+00:00", BAD),
    ("2014-09-01T22+00:00", BAD),
    ("2014-09-01T22:00+00:00", BAD),
    ("2014-09-01X22:00:00+00:00", BAD),
    ("2014-09-01", BAD),
    ("2014-09-01T22:00:00+05:60", BAD),
    ("2014-09-01T22:00:00+05:30:15", BAD),
    ("2014-09-01T22:00:00,5+00:00", BAD),
    ("2014-09-01T22:00:00.1234567+00:00", BAD),
    ("2014-09-01T22:01:00.5.5Z", BAD),
    ("2014-09-01T24:00:00+00:00", BAD),
    ("2014-09-01T22:00:00+24:00", BAD),
    ("2014-13-01T22:00:00+00:00", BAD),
    ("2015-02-29T22:00:00+00:00", BAD),
    ("0000-12-31T22:00:00+00:00", BAD),
    ("2014-09-01T22:00:0０+00:00", BAD),  # a full-width zero
    ("2014-09-01T22:00:00 +00:00", BAD),
]


def _read_form(read, cell):
    try:
        return read(cell).isoformat()
    except (MalformedRow, ValueError) as exc:
        return str(exc)


@pytest.mark.parametrize("cell, expected", TIMESTAMP_FORMS, ids=[c for c, _ in TIMESTAMP_FORMS])
def test_timestamp_form(cell, expected):
    expected = expected.format(cell.strip(" \t\x0b")) if expected == BAD else expected
    refused = not expected[:1].isdigit()
    # alone in a file, and after a line in the canonical form on one path or the other
    for before in ("", "2014-09-01T21:59:00+00:00,0,0,0,0,off\n"):
        text = HEADER + before + (f'"{cell}"' if "," in cell else cell) + ",0,0,0,0,off\n"
        line = 2 + bool(before)
        got = _read_form(lambda t: parse_epoch_csv(t).timestamp(line - 2), text)
        assert got == (f"line {line}: {expected}" if refused else expected)
        assert _read_form(lambda t: ref_parse(t).epochs[line - 2].timestamp, text) == got
    # a day profile's start reads by the same rule
    assert _read_form(read_timestamp, cell) == expected


@pytest.mark.parametrize("rows, fault", [
    # a field out of range on an earlier line, or earlier in the same line, comes first
    (["2014-09-01T22:00:00+05:60,0,0,0,0,off", "2014-09-01T22:01:00+00:00,x,0,0,0,off"],
     "line 2: bad timestamp '2014-09-01T22:00:00+05:60'"),
    (["2014-09-01T22:00:00+00:00,0,0,0,0,off", "2014-02-30T22:01:00Z,x,0,0,0,prone"],
     "line 3: bad timestamp '2014-02-30T22:01:00Z'"),
    (["2014-09-01T22:00:00+00:00,x,0,0,0,off", "2014-13-01T22:01:00Z,0,0,0,0,off"],
     "line 2: axis1 'x' is not an integer"),
    (["2014-09-01T22:00:00Z,0,0,0,0,prone", "2014-09-01T24:01:00Z,0,0,0,0,off"],
     "line 2: unknown inclinometer state 'prone'"),
])
@pytest.mark.parametrize("block_rows", [1, 2])
def test_timestamp_fault_in_file_order(rows, fault, block_rows, monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
    with pytest.raises(ParseError) as caught:
        parse_epoch_csv(csv_text(rows))
    assert str(caught.value) == fault
