"""The columnar series against the object-per-epoch reference in ``oracles``,
plus byte-identity pins for synthetic output and DST-crossing reports."""

from __future__ import annotations

import hashlib
import io
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rahar.cli import main
from rahar.cutpoints import builtin_troiano_scale, classify_series, make_scale
from rahar.errors import RaharError
from rahar.ingest import (
    MAX_COUNT,
    Inclinometer,
    aggregate_epochs,
    fill_gaps,
    find_gaps,
    parse_epoch_csv,
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
        elif corruption == "unaligned":
            row[0] = _stamp(utc, offset + timedelta(seconds=30), False)
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
