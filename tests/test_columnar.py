"""The columnar series against the object-per-epoch reference in ``oracles``,
plus byte-identity pins for synthetic output and DST-crossing reports."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rahar import ingest
from rahar.cli import main
from rahar.cutpoints import builtin_troiano_scale, classify_series, make_scale
from rahar.errors import MalformedRow, ParseError, RaharError
from rahar.ingest import (
    MAX_COUNT,
    Inclinometer,
    aggregate_epochs,
    fill_gaps,
    find_gaps,
    parse_epoch_csv,
    read_input,
    serialize_epoch_csv,
    validate_series,
)
from rahar.sleep import CandidateConfig, candidate_mask
from rahar.synth import ActivityBlock, DayProfile, generate

from oracles import (
    epochs_of,
    ref_aggregate,
    ref_candidate_mask,
    ref_classify,
    ref_fill_gaps,
    ref_find_gaps,
    ref_parse,
    ref_serialize,
    ref_validate,
    series_of,
)

HEADER = "timestamp,axis1,axis2,axis3,steps,inclinometer\n"
BASE = datetime(2014, 10, 25, 22, 0, tzinfo=timezone.utc)
MINUTE = timedelta(minutes=1)
OFFSETS = [timedelta(0), timedelta(hours=3), -timedelta(hours=5, minutes=30), timedelta(hours=1)]
# zeros for candidate sleep, the adult Troiano band edges, and the ceiling
COUNTS = [0, 0, 0, 0, 1, 99, 100, 2019, 2020, 5998, 5999, MAX_COUNT]
STATE_TOKENS = ["off", "standing", "sitting", "lying"]
RAGGED_STATE_TOKENS = STATE_TOKENS + ["Off", " lying", "SITTING\t"]
# a cell may be padded with ASCII whitespace; a non-ASCII space makes it a fault
ASCII_PADS = ["", " ", "\t", "\x0b\x0c "]
NON_ASCII_PADS = ["\u00a0", "\u3000"]
CORRUPTIONS = [
    "fields", "timestamp", "naive", "not_integer", "negative", "ceiling", "huge",
    "inclinometer", "duplicate", "backwards", "off_grid", "unaligned", "header", "empty",
    "padding",
]
CANDIDATES = [
    CandidateConfig(),
    CandidateConfig(
        require_zero_steps=False,
        inclinometer_accept=frozenset({Inclinometer.OFF, Inclinometer.LYING}),
    ),
]
SCALE = builtin_troiano_scale()


def _stamp(utc: datetime, offset: timedelta, zulu: bool) -> str:
    text = utc.astimezone(timezone(offset)).isoformat()
    return text.replace("+00:00", "Z") if zulu else text


@st.composite
def epoch_files(draw, corruption: str | None = None):
    """Small epoch CSVs: Z, fixed, mixed and DST-switching offsets; gaps,
    blank lines and fields padded with ASCII whitespace or re-cased in some;
    ``corruption`` names the fault put in one row, or in the header or the
    whole file."""
    n = draw(st.integers(0 if corruption is None else 2, 16))
    plan = draw(st.sampled_from(["zulu", "fixed", "mixed", "dst"]))
    gappy, ragged = draw(st.booleans()), draw(st.booleans())
    fixed = draw(st.sampled_from(OFFSETS))
    switch = draw(st.integers(0, max(n - 1, 0)))
    minute, instants, rows = 0, [], []
    for i in range(n):
        minute += draw(st.sampled_from([1, 1, 1, 2, 4])) if gappy else 1
        utc = BASE + minute * MINUTE
        if plan == "zulu":
            offset = timedelta(0)
        elif plan == "fixed":
            offset = fixed
        elif plan == "mixed":
            offset = draw(st.sampled_from(OFFSETS))
        else:  # summer time ends at row `switch`
            offset = timedelta(hours=2 if i < switch else 1)
        # still rows are candidate sleep; stepping rows have steps but no triaxial counts
        kind = draw(st.sampled_from(["moving", "still", "stepping"]))
        counts = [draw(st.sampled_from(COUNTS)) for _ in range(4)]
        if kind != "moving":
            counts[:3] = [0, 0, 0]
        if kind == "still":
            counts[3] = 0
        fields = [_stamp(utc, offset, plan == "zulu")]
        pads = [draw(st.sampled_from(ASCII_PADS)) if ragged else "" for _ in counts]
        fields += [f"{pad}{c}{pad}" for pad, c in zip(pads, counts)]
        fields.append(draw(st.sampled_from(RAGGED_STATE_TOKENS if ragged else STATE_TOKENS)))
        instants.append((utc, offset))
        rows.append(fields)
    header = HEADER
    if corruption == "empty":
        return ""
    if corruption == "header":
        # a header field is padded by the same rule as a cell
        names = HEADER.strip().split(",")
        pad, j = draw(st.sampled_from(NON_ASCII_PADS)), draw(st.integers(0, 5))
        names[j] = draw(st.sampled_from([pad + names[j], names[j] + pad]))
        header = draw(st.sampled_from(["time,ax1\n", ",".join(names) + "\n"]))
    elif corruption:
        r = draw(st.integers(1, n - 1))
        utc, offset = instants[r]
        row = rows[r]
        k = draw(st.integers(1, 4))
        if corruption == "fields":
            row.pop()
        elif corruption == "timestamp":
            row[0] = "2014-13-45T99:00:00+00:00"
        elif corruption == "naive":
            row[0] = utc.replace(tzinfo=None).isoformat()
        elif corruption == "not_integer":
            row[k] = draw(st.sampled_from(["1.5", "x", "", "1_0", "+5", "١٢"]))
        elif corruption == "negative":
            row[k] = "-3"
        elif corruption == "ceiling":
            row[k] = str(MAX_COUNT + 1)
        elif corruption == "huge":
            row[k] = "99999999999999999999999"
        elif corruption == "inclinometer":
            row[5] = "prone"
        elif corruption == "duplicate":
            row[0] = rows[r - 1][0]
        elif corruption == "backwards":
            row[0] = _stamp(instants[r - 1][0] - 2 * MINUTE, offset, False)
        elif corruption == "off_grid":
            row[0] = _stamp(utc + timedelta(seconds=30), offset, False)
        elif corruption == "unaligned":  # every row 30 s past its minute, a minute apart
            for (utc, offset), fields in zip(instants, rows):
                fields[0] = _stamp(utc + timedelta(seconds=30), offset, False)
        elif corruption == "padding":
            pad, j = draw(st.sampled_from(NON_ASCII_PADS)), draw(st.integers(0, 5))
            row[j] = draw(st.sampled_from([pad + row[j], row[j] + pad]))
    lines = []
    for fields in rows:
        if ragged and draw(st.integers(0, 3)) == 0:
            lines.append("")
        lines.append(",".join(fields))
    return header + "".join(line + "\n" for line in lines)


def _columns(series) -> tuple:
    return (
        series.utc_us.tolist(),
        series.offset_us.tolist(),
        series.counts.tolist(),
        series.inclinometer.tolist(),
        series.epoch_length,
    )


def _gaps(gaps) -> list:
    return [(g.start.isoformat(), g.length, g.after_index) for g in gaps]


def _columnar_trail(text, stride, fill, factor, signal, cfg) -> list:
    trail = []
    try:
        series = parse_epoch_csv(text, epoch_length=stride)
        trail.append(_columns(series))
        trail.append(_gaps(find_gaps(series)))
        if fill:
            series, inserted = fill_gaps(series)
            trail.append((_columns(series), inserted))
        series = validate_series(series)
        series, dropped = aggregate_epochs(series, factor)
        trail.append((_columns(series), dropped))
        trail.append(classify_series(series, SCALE, 18, signal).tolist())
        trail.append(candidate_mask(series, cfg).tolist())
        out = io.StringIO()
        serialize_epoch_csv(series, out)
        trail.append(out.getvalue())
    except RaharError as exc:
        trail.append((type(exc), str(exc)))
    return trail


def _reference_trail(text, stride, fill, factor, signal, cfg) -> list:
    def columns(ref):
        return _columns(series_of(ref.epochs, ref.epoch_length))

    trail = []
    try:
        series = ref_parse(text, stride)
        trail.append(columns(series))
        trail.append(_gaps(ref_find_gaps(series)))
        if fill:
            series, inserted = ref_fill_gaps(series)
            trail.append((columns(series), inserted))
        series = ref_validate(series)
        series, dropped = ref_aggregate(series, factor)
        trail.append((columns(series), dropped))
        trail.append([int(v) for v in ref_classify(series, SCALE, 18, signal)])
        trail.append(ref_candidate_mask(series, cfg).tolist())
        trail.append(ref_serialize(series))
    except RaharError as exc:
        trail.append((type(exc), str(exc)))
    return trail


def _assert_trails_match(text, stride_s, fill, factor, signal, cfg):
    args = (text, timedelta(seconds=stride_s), fill, factor, signal, cfg)
    assert _columnar_trail(*args) == _reference_trail(*args)


PIPELINE_ARGS = dict(
    stride_s=st.sampled_from([60, 60, 60, 30]),
    fill=st.booleans(),
    factor=st.integers(1, 5),
    signal=st.sampled_from(["axis1", "vm3"]),
    cfg=st.sampled_from(CANDIDATES),
)


class TestAgainstReference:
    @given(text=epoch_files(), **PIPELINE_ARGS)
    @settings(max_examples=60, deadline=None)
    def test_valid_files_match_at_every_stage(self, text, **args):
        _assert_trails_match(text, **args)

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), **PIPELINE_ARGS)
    def test_faulty_files_fail_alike(self, corruption, data, **args):
        _assert_trails_match(data.draw(epoch_files(corruption)), **args)

    @pytest.mark.parametrize("pad", NON_ASCII_PADS)
    @pytest.mark.parametrize("cell", range(6))
    def test_non_ascii_padding_is_rejected(self, cell, pad):
        fields = ["2014-09-01T00:01:00Z", "5", "0", "0", "0", "off"]
        fields[cell] = pad + fields[cell]
        text = HEADER + "2014-09-01T00:00:00Z,0,0,0,0,off\n" + ",".join(fields) + "\n"
        args = (text, MINUTE, False, 1, "axis1", CANDIDATES[0])
        trail = _columnar_trail(*args)
        assert trail == _reference_trail(*args)
        assert len(trail) == 1 and "line 3" in trail[0][1], trail

    @given(text=epoch_files())
    @settings(max_examples=20, deadline=None)
    def test_row_view_matches_reference_epochs(self, text):
        assert epochs_of(parse_epoch_csv(text)) == ref_parse(text).epochs

    def test_series_compare_by_value(self):
        text = _dst_night()
        assert parse_epoch_csv(text) == parse_epoch_csv(text)
        assert parse_epoch_csv(text) != parse_epoch_csv(text, epoch_length=timedelta(seconds=30))
        # the same instant written in another offset is another series
        utc = parse_epoch_csv(HEADER + "2014-09-01T00:00:00+00:00,5,0,0,0,off\n")
        local = parse_epoch_csv(HEADER + "2014-09-01T01:00:00+01:00,5,0,0,0,off\n")
        assert utc.utc_us.tolist() == local.utc_us.tolist()
        assert utc != local

    def test_aggregated_vm3_beyond_int64_squares(self):
        # three rows at the ceiling sum to 3e9 per axis; their squares overflow int64
        text = HEADER + "".join(
            f"2014-09-01T00:0{m}:00Z,{MAX_COUNT},{MAX_COUNT},{MAX_COUNT},0,off\n" for m in range(3)
        )
        series, _ = aggregate_epochs(parse_epoch_csv(text), 3)
        reference, _ = ref_aggregate(ref_parse(text), 3)
        # over the 3-minute block the exact magnitude is 1.73e9 counts/min (light
        # here); wrapped int64 squares would give 0.97e9 (sedentary)
        scale = make_scale("wide", [(0, 130, 10**9, 2 * 10**9, 4 * 10**9)])
        expected = [int(v) for v in ref_classify(reference, scale, 18, "vm3")]
        assert classify_series(series, scale, 18, "vm3").tolist() == expected == [1]


# For epoch files read a block of records at a time: good cells of each column
# besides the common ones, most of them not in the canonical form, and bad cells
ODD_CELLS = [
    ["2016-02-29T23:59:59+00:00", "2016-02-29T23:59:59Z", "2014-09-01T22:00:00.5+00:00",
     " 2014-09-01T22:00:00+00:00\t", "2014-09-01 22:00:00-05:30"],
    *[[" 7", "7\t", "00000000005"]] * 4,
    ["Off", " lying", "SITTING\t"],
]
BAD_CELLS = [
    ["2014-13-01T00:00:00+00:00", "2014-00-10T00:00:00+00:00", "2014-04-31T00:00:00+00:00",
     "2014-09-00T00:00:00+00:00", "2015-02-29T00:00:00+00:00", "1900-02-29T00:00:00+00:00",
     "2016-02-29T24:00:00+00:00", "2016-02-29T23:60:00+00:00", "2016-02-29T23:59:60+00:00",
     "2016-02-29T23:59:59+24:00", "0000-01-01T00:00:00+00:00", "2016-02-29T23:59:59~05:00",
     "2014/09-01T22:00:00+00:00", "2014-09-01T22.00:00+00:00", "2016-02-29T23:59:59",
     "2014-09-01T22:00:00+05:60"],
    *[["x", "-3", str(MAX_COUNT + 1), "", "1_0", "\u0663", "99999999999"]] * 4,
    ["prone", "lying\u00a0"],
]
# canonical timestamps, from year 1 to 9999 and offsets of both signs up to 23:59
canonical_stamps = st.builds(
    lambda local, minutes: local.replace(tzinfo=timezone(timedelta(minutes=minutes))).isoformat(),
    st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30)).map(lambda t: t.replace(microsecond=0)),
    st.integers(-(24 * 60 - 1), 24 * 60 - 1),
)


@st.composite
def mixed_epoch_files(draw, block_rows: int) -> str:
    """Epoch CSVs of canonical records, some with an odd cell, and blank records, with
    up to two bad cells (or records of another width), each in the last record of a
    block of ``block_rows`` csv records or the first of the next, blank ones counted
    (or, in a shorter file, in its last record).  Lines end in LF, CRLF or either."""

    def canonical():
        return [draw(canonical_stamps), *(str(draw(st.sampled_from(COUNTS))) for _ in range(4)),
                draw(st.sampled_from(STATE_TOKENS))]

    records = []
    for _ in range(draw(st.integers(1, 4 * block_rows + 2))):
        if draw(st.integers(0, 5)) == 0:
            records.append([])  # a blank line
        fields = canonical()
        if draw(st.integers(0, 5)) == 0:
            j = draw(st.integers(0, 5))
            fields[j] = draw(st.sampled_from(ODD_CELLS[j]))
        records.append(fields)
    for _ in range(draw(st.integers(0, 2))):
        r = min(len(records) - 1, draw(st.integers(1, 4)) * block_rows - draw(st.integers(0, 1)))
        records[r] = records[r] or canonical()
        j = draw(st.integers(0, 6))
        if j == 6:
            records[r] = records[r][:-1] if draw(st.booleans()) else records[r] + ["0"]
        elif j < len(records[r]):
            records[r][j] = draw(st.sampled_from(BAD_CELLS[j]))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"]]))
    return "".join(",".join(fields) + draw(st.sampled_from(ends))
                   for fields in [HEADER.strip().split(","), *records])


def _epochs_or_fault(parse, text):
    try:
        return parse(text)
    except RaharError as exc:
        return type(exc), str(exc)


class TestBlocks:
    """A file read a block of records at a time parses as the reference reads it
    a row at a time: the same epochs, or the same first fault in file order."""

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mixed_files_match_reference(self, block_rows, data):
        text = data.draw(mixed_epoch_files(block_rows))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "BLOCK_ROWS", block_rows)
            got = _epochs_or_fault(lambda t: epochs_of(parse_epoch_csv(t)), text)
        assert got == _epochs_or_fault(lambda t: ref_parse(t).epochs, text)

    # each of these cells alone in a block of canonical records
    @pytest.mark.parametrize("column, cell", [
        (j, cell) for table in (ODD_CELLS, BAD_CELLS) for j, cells in enumerate(table) for cell in cells
    ])
    def test_one_odd_or_bad_cell_among_canonical_records(self, column, cell):
        rows = [["2016-02-28T23:59:00-05:30", "0", "12", "0", "3", "lying"] for _ in range(3)]
        rows[1][column] = cell
        text = HEADER + "".join(",".join(fields) + "\n" for fields in rows)
        got = _epochs_or_fault(lambda t: epochs_of(parse_epoch_csv(t)), text)
        assert got == _epochs_or_fault(lambda t: ref_parse(t).epochs, text)

    # a quoted "5\n" count runs from line 3 onto line 4; the bad row, line 5, is in
    # the same block of 3 records, or in the next block of 2
    @pytest.mark.parametrize("block_rows", [3, 2])
    def test_record_spanning_lines_before_a_bad_cell(self, block_rows, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        text = HEADER + (
            "2014-09-01T22:00:00+00:00,0,0,0,0,off\n"
            '2014-09-01T22:01:00+00:00,"5\n",0,0,0,off\n'
            "2014-09-01T22:02:00+00:00,x,0,0,0,off\n"
        )
        with pytest.raises(MalformedRow) as info:
            parse_epoch_csv(text)
        assert str(info.value) == "line 5: axis1 'x' is not an integer"

    # records on lines 2, 3-4 and 5, the last with a field over the limit: in the
    # second block of 2 records, or in the first block of 3; a bad cell on line 2
    # comes first in the file, so it is the fault reported
    @pytest.mark.parametrize("block_rows", [2, 3])
    @pytest.mark.parametrize("first_count, line", [("0", 5), ("x", 2)])
    def test_field_over_the_size_limit(self, block_rows, first_count, line, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        huge = "1" * (csv.field_size_limit() + 1)
        text = HEADER + (
            f"2014-09-01T22:00:00+00:00,{first_count},0,0,0,off\n"
            '2014-09-01T22:01:00+00:00,"5\n",0,0,0,off\n'
            f"2014-09-01T22:02:00+00:00,{huge},0,0,0,off\n"
        )
        with pytest.raises(MalformedRow) as info:
            parse_epoch_csv(text)
        assert info.value.line_number == line
        if first_count == "0":
            assert str(info.value) == f"line 5: field larger than field limit ({csv.field_size_limit()})"


def _canonical_lines(n: int) -> list[str]:
    return [f"{(BASE + k * MINUTE).isoformat()},{k},{k % 3},0,{k % 5},{STATE_TOKENS[k % 4]}\n"
            for k in range(n)]


def _with_hazard(hazard: str, at: int) -> tuple[str, str]:
    """A file of nine canonical lines with ``hazard`` put on data line ``at``, and the
    text that the reference reads to the same epochs or fault."""
    lines = _canonical_lines(9)
    stamp, *cells = lines[at].rstrip("\n").split(",")
    if hazard == "crlf":
        return (HEADER + "".join(lines)).replace("\n", "\r\n"), (HEADER + "".join(lines))
    if hazard == "lone-cr":  # a lone CR ends a line, as the csv module reads it
        lines[at] = lines[at].replace("\n", "\r")
        return HEADER + "".join(lines), HEADER + "".join(lines).replace("\r", "\n")
    if hazard == "bom":  # a byte-order mark, as a spreadsheet writes one, is dropped
        return "\ufeff" + HEADER + "".join(lines), HEADER + "".join(lines)
    if hazard == "no-final-newline":
        return (HEADER + "".join(lines[: at + 1])).rstrip("\n"), HEADER + "".join(lines[: at + 1])
    if hazard == "header-only":
        return HEADER, HEADER
    if hazard == "blank-line":
        lines.insert(at, "\n")
    elif hazard == "x-before-timestamp":  # the 25 bytes before the first comma are good
        lines[at] = "x" + lines[at]
    elif hazard in ("lyïng", "LYING", "Lying", "standings"):
        lines[at] = ",".join([stamp, *cells[:4], hazard]) + "\n"
    else:  # a count
        lines[at] = ",".join([stamp, hazard, *cells[1:]]) + "\n"
    return HEADER + "".join(lines), HEADER + "".join(lines)


HAZARDS = ["crlf", "lone-cr", "bom", "lyïng", "no-final-newline", "header-only", "blank-line",
           "x-before-timestamp", "LYING", "Lying", "standings", "0009", "1000000000",
           "1000000001", str(2**64 + 5)]


def _parse_epochs(text):
    return epochs_of(parse_epoch_csv(text))


class TestBytePath:
    """A chunk of lines read from its bytes, or refused to the csv record path, parses
    as the reference reads the file a row at a time."""

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("hazard", HAZARDS)
    def test_hazard_matches_reference(self, hazard, block_rows, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        for at in range(9):
            text, reference = _with_hazard(hazard, at)
            got = _epochs_or_fault(_parse_epochs, text)
            assert got == _epochs_or_fault(lambda t: ref_parse(t).epochs, reference), at

    # a quoted "5\n" count after one or more chunks read from their bytes: one csv reader
    # reads on, so the bad cell after it is named by its physical line
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("bad", [False, True])
    def test_quoted_count_spanning_lines_after_plain_chunks(self, block_rows, bad, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        lines = _canonical_lines(12)
        lines[8] = lines[8].replace(",8,", ',"5\n",', 1)  # data line 8 is lines 10 and 11
        if bad:
            lines[10] = lines[10].replace(",10,", ",x,", 1)  # line 13
        got = _epochs_or_fault(_parse_epochs, HEADER + "".join(lines))
        if bad:
            assert got == (MalformedRow, "line 13: axis1 'x' is not an integer")
        else:
            assert got == _epochs_or_fault(lambda t: ref_parse(t).epochs, HEADER + "".join(lines))
            assert got[8].axis1 == 5

    # a refused chunk costs only itself: the chunks after it are read from their bytes
    def test_a_refused_chunk_alone_is_read_as_records(self, monkeypatch):
        lines = _canonical_lines(12)
        lines[4] = lines[4].replace("+00:00,", "Z,")
        read, epoch_rows = [], ingest._epoch_rows

        def record_path(numbers, rows):
            read.append(numbers)
            return epoch_rows(numbers, rows)

        monkeypatch.setattr(ingest, "BLOCK_ROWS", 3)
        monkeypatch.setattr(ingest, "_epoch_rows", record_path)
        assert _parse_epochs(HEADER + "".join(lines)) == ref_parse(HEADER + "".join(lines)).epochs
        assert read == [[5, 6, 7]]

    # a quoted field runs on to a byte that is not UTF-8: the reader that reads the rest of
    # the file meets the bad byte before the field ends, so that is the fault
    def test_a_quoted_field_open_at_a_byte_that_is_not_utf8(self, tmp_path):
        lines = [line.encode() for line in _canonical_lines(600)]
        lines[2] = lines[2].replace(b",2,", b',"2,', 1)
        lines[400] = lines[400].replace(b"off", b"\xe9t\xe9")  # line 402, about 16 kB on
        path = tmp_path / "rec.csv"
        path.write_bytes(HEADER.encode() + b"".join(lines))
        with pytest.raises(ParseError) as info:
            read_input(path, parse_epoch_csv)
        assert str(info.value) == "line 402: not UTF-8"

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 1024])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_canonical_lines_never_reach_the_record_path(self, block_rows, end, monkeypatch):
        text = (HEADER + "".join(_canonical_lines(20))).replace("\n", end)
        expected = ref_parse(text).epochs
        monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(ingest, "_epoch_rows", None)  # calling it would fail
        assert _parse_epochs(text) == expected


CRITERION_10_SHA256 = "ceabdf6109429fb4f393680687fc0a718ae25c10fabceed1a7e4f3f6af0de365"


def test_criterion_10_synthetic_csv_is_pinned():
    day = (
        ActivityBlock("sleep", 480),
        ActivityBlock("sedentary", 420),
        ActivityBlock("light", 300),
        ActivityBlock("moderate", 240),
    )
    series, _ = generate(DayProfile(schedule=day * 14, noise=0.02, seed=1406))
    out = io.StringIO()
    serialize_epoch_csv(series, out)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == CRITERION_10_SHA256


def _dst_night() -> str:
    """Awake, then sleep across the end of summer time (+02:00 -> +01:00 at 01:00Z)."""
    lines = []
    for k in range(360):
        utc = datetime(2014, 10, 25, 21, 0, tzinfo=timezone.utc) + k * MINUTE
        offset = timedelta(hours=2 if utc < datetime(2014, 10, 26, 1, tzinfo=timezone.utc) else 1)
        asleep = 60 <= k < 300
        counts = "0,0,0,0,off" if asleep else "800,300,200,30,standing"
        lines.append(f"{_stamp(utc, offset, False)},{counts}\n")
    return HEADER + "".join(lines)


class TestDstCrossing:
    def test_round_trip_keeps_each_rows_offset(self):
        text = _dst_night()
        series = validate_series(parse_epoch_csv(text))
        out = io.StringIO()
        serialize_epoch_csv(series, out)
        assert out.getvalue() == text
        assert sorted(set(series.offset_us.tolist())) == [3_600_000_000, 7_200_000_000]

    def test_sleep_report_onset_and_awakening_keep_their_offsets(self, tmp_path):
        path = tmp_path / "dst.csv"
        path.write_text(_dst_night())
        out = tmp_path / "dst.sleep.json"
        assert main(["sleep", "--in", str(path), "--out", str(out)]) == 0
        (period,) = json.loads(out.read_text())
        # onset 22:00Z written in summer time, awakening 01:59Z in winter time
        assert period["onset"] == "2014-10-26T00:00:00+02:00"
        assert period["awakening"] == "2014-10-26T02:59:00+01:00"
        assert (period["onset_index"], period["awakening_index"]) == (60, 299)
