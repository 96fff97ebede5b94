"""Fuzz of the command line.

Bad epoch CSVs, bad flag values, bad day profiles, bad cut-point scale
files, bad dataset CSVs and bad score,label CSVs must end in a documented
exit code with one line on stderr and no traceback, and a command that
fails leaves no output behind.  The inputs hold a few hundred epochs at
most and no sleep to segment, so no example reaches the slow stages.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rahar.cli import PARAMETERS, main

EXIT_CODES = {0, 2, 3, 4, 5}
HEADER = "timestamp,axis1,axis2,axis3,steps,inclinometer"
T0 = datetime(2014, 9, 1, 22, 0, tzinfo=timezone.utc)
FUZZ = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# argv cannot carry NUL or unpaired surrogates
ARG_TEXT = st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
                   max_size=8)


def cli(argv: list[str], workdir: Path, wrote: bool = False) -> tuple[int, str]:
    """Exit code and stderr of ``rahar argv``; asserts the error contract.
    With ``wrote``, a success logs one or more lines, each a ``wrote …`` line."""
    before = sorted(workdir.rglob("*"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a command line by exiting
            code = exc.code
    text = err.getvalue()
    assert code in EXIT_CODES, (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if wrote and code == 0:
        lines = text.splitlines()
        assert text.endswith("\n") and all(s.startswith("wrote ") for s in lines), (argv, text)
    else:
        assert text.count("\n") == 1 and text.endswith("\n"), (argv, text)
    if code != 0:
        assert sorted(workdir.rglob("*")) == before, (argv, text)
    return code, text


def row(minute: int, offset_min: int = 0) -> list[str]:
    """A valid epoch, its timestamp written in UTC+``offset_min``."""
    tz = timezone(timedelta(minutes=offset_min))
    stamp = (T0 + timedelta(minutes=minute)).astimezone(tz).isoformat()
    return [stamp, str(minute * 37 % 500), str(minute % 3), "0", str(minute % 2),
            ("sitting", "standing", "off", "lying")[minute % 4]]


@st.composite
def bad_epoch_csvs(draw) -> str:
    """A valid file of a few epochs, then one to three faults."""
    rows = [row(m) for m in range(draw(st.integers(1, 12)))]
    header = HEADER
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from([
            "header", "fields", "negative", "non-integer", "inclinometer", "naive",
            "mixed", "duplicate", "backward", "off-grid", "garbage", "empty",
        ]))
        i = draw(st.integers(0, len(rows) - 1)) if rows else 0
        if fault == "empty":
            return ""
        if fault == "header":
            header = draw(st.sampled_from([
                HEADER.replace("axis2", "axis_2"), HEADER.rsplit(",", 1)[0], HEADER.upper(),
                "inclinometer," + HEADER.split(",", 1)[1], "", "\ufeff" + HEADER,
            ]))
        elif not rows:
            continue
        elif fault == "duplicate":
            rows.insert(i, list(rows[i]))
        elif fault == "backward" and len(rows) > 1:
            j = i + 1 if i + 1 < len(rows) else i - 1
            rows[i], rows[j] = rows[j], rows[i]
        elif fault == "garbage":
            rows.insert(i, [draw(st.text(max_size=20))])
        elif len(rows[i]) != len(row(0)):
            continue  # an earlier fault already broke this row
        elif fault == "fields":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], "0"]
        elif fault == "negative":
            rows[i][draw(st.integers(1, 4))] = str(-draw(st.integers(1, 10**12)))
        elif fault == "non-integer":
            rows[i][draw(st.integers(1, 4))] = draw(st.sampled_from(
                ["1.5", "x", "", " ", "1e3", "0x10", "+", "nan", "inf", "10000000000", "1_0",
                 "١٢"]
            ))
        elif fault == "inclinometer":
            rows[i][5] = draw(st.sampled_from(["", "sleeping", "OFF ", "on", "0", "Lying"]))
        elif fault == "naive":
            rows[i][0] = rows[i][0][: -len("+00:00")]
        elif fault == "mixed":
            # the same instant in another offset, or a Zulu stamp
            rows[i][0] = draw(st.sampled_from([
                row(i, offset_min=draw(st.integers(-24 * 60 + 1, 24 * 60 - 1)))[0],
                rows[i][0][: -len("+00:00")] + "Z",
            ]))
        elif fault == "off-grid":
            shift = draw(st.integers(-86400, 86400).filter(lambda s: s % 60))
            rows[i][0] = (T0 + timedelta(minutes=i, seconds=shift)).isoformat()
    return "".join(line + "\n" for line in [header, *(",".join(r) for r in rows)])


@FUZZ
@given(text=bad_epoch_csvs(), command=st.sampled_from(["validate", "sleep", "run", "features"]))
def test_bad_epoch_csvs(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        recording = workdir / "day.csv"
        recording.write_text(text, encoding="utf-8")
        out = {"validate": [], "run": ["--report", str(workdir / "out")]}.get(
            command, ["--out", str(workdir / "out")]
        )
        code, err = cli([command, "--in", str(recording), *out], workdir)
        if text == "":
            assert code == 2 and "empty input: missing header" in err


FLAG_VALUES = st.one_of(
    st.sampled_from([
        "nan", "inf", "-inf", "-1", "0", "1", "2", "1.5", "1e400", "99999999999999999999",
        "", " ", "abc", "-", "--", "0x10", "3", "200", "rf", "vm3",
    ]),
    ARG_TEXT,
)


@FUZZ
@given(
    command=st.sampled_from(["validate", "changepoints", "features", "run", "eval", "synth"]),
    flags=st.lists(
        st.tuples(st.sampled_from([p.metadata["flag"] for p in PARAMETERS] + ["--threshold"]),
                  FLAG_VALUES),
        min_size=1, max_size=2,
    ),
)
def test_bad_flag_values(command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        recording = workdir / "day.csv"
        recording.write_text("".join(
            line + "\n" for line in [HEADER, *(",".join(row(m)) for m in range(12))]
        ))
        scored = workdir / "scored.csv"
        scored.write_text("score,label\n0.9,good\n0.2,poor\n")
        profile = workdir / "p.json"
        profile.write_text('{"schedule": [{"mode": "light", "duration_min": 5}]}')
        out = str(workdir / "out")
        required = {
            "validate": ["--in", str(recording)],
            "changepoints": ["--in", str(recording), "--out", out],
            "features": ["--in", str(recording), "--out", out],
            "run": ["--in", str(recording), "--report", out],
            "eval": ["--in", str(scored), "--out", out],
            "synth": ["--profile", str(profile), "--out", out],
        }[command]
        # "--flag=value" keeps a value that starts with "-" a value
        cli([command, *required, *(f"{flag}={value}" for flag, value in flags)], workdir)


PROFILE_NUMBERS = st.one_of(
    st.sampled_from([
        "1e400", "-1e400", "NaN", "Infinity", "-5", "0", "1e-300", "5e-324", "1e300",
        "1000000000", "1000000001", "50", "1.5", "null", "true", '"7"', '"x"', "[]", "{}",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(json.dumps),
)


@st.composite
def bad_blocks(draw) -> str:
    fields = {
        "mode": json.dumps(draw(st.sampled_from(
            ["sedentary", "light", "moderate", "vigorous", "sleep", "nap"]
        ))),
        "duration_min": draw(st.sampled_from(["5", "20", "60", "0", "-1", "1.5", '"x"'])),
    }
    for name in draw(st.sets(st.sampled_from(["dispersion", "mean_counts", "mean_steps"]))):
        if name == "mean_counts" and draw(st.booleans()):
            values = draw(st.lists(PROFILE_NUMBERS, max_size=4))
            fields[name] = "[" + ", ".join(values) + "]"
        else:
            fields[name] = draw(PROFILE_NUMBERS)
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


@FUZZ
@given(
    blocks=st.lists(bad_blocks(), min_size=1, max_size=3),
    start=st.sampled_from([
        "2014-09-01T00:00:00+00:00", "9999-12-31T23:00:00+00:00", "9999-12-31T20:00:00-05:00",
        "0001-01-01T00:00:00+05:00", "2014-09-01T00:00:00", "2014-13-01T00:00:00+00:00",
        "2014-09-01T00:00:30+00:00", "2014-09-01T00:00:00.5+00:00", "2014-09-01T23:59:59.999999Z",
        "2014-09-01T05:30:00+05:30",
    ]),
)
def test_bad_day_profiles(blocks, start):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        profile = workdir / "p.json"
        profile.write_text(
            f'{{"seed": 3, "start": "{start}", "schedule": [' + ", ".join(blocks) + "]}"
        )
        out = workdir / "sim.csv"
        code, _ = cli(["synth", "--profile", str(profile), "--out", str(out)], workdir)
        if code == 0:
            # what synth writes, rahar reads back whole
            epochs = sum(json.loads(b)["duration_min"] for b in blocks)
            assert cli(["validate", "--in", str(out)], workdir) == (
                0, f"{out}: OK ({epochs} epochs)\n"
            )


SCALE_HEADER = "age_min,age_max,sedentary_max,light_max,moderate_max"
SCALE_NUMBERS = st.one_of(
    st.sampled_from([
        "nan", "inf", "-inf", "1e400", "-1", "0", "1.5", "", " ", "x", "0x10", "1_000",
        "9" * 5000, "99999999999999999999", '"7\n"', "١",
    ]),
    st.integers(-10, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
# the same digits in other scripts: Arabic-Indic, Devanagari, fullwidth
OTHER_DIGITS = [str.maketrans("0123456789", "".join(chr(z + d) for d in range(10)))
                for z in (0x660, 0x966, 0xFF10)]


@st.composite
def bad_scale_files(draw) -> str:
    """A valid one-band adult scale, then one to three faults."""
    rows = [["0", "130", "99", "2019", "5998"]]
    header = SCALE_HEADER
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from([
            "header", "fields", "number", "order", "ages", "band", "garbage", "blank",
            "overlong", "empty", "ascii", "ascii", "ascii",  # most runs test the ASCII rule
        ]))
        i = draw(st.integers(0, len(rows) - 1)) if rows else 0
        if fault == "empty":
            return ""
        if fault == "header":
            header = draw(st.sampled_from([
                SCALE_HEADER.upper(), SCALE_HEADER.rsplit(",", 1)[0], "", "\ufeff" + SCALE_HEADER,
                " " + SCALE_HEADER.replace(",", " , "), SCALE_HEADER + ",extra",
            ]))
        elif fault == "blank":
            rows.insert(i, [])
        elif fault == "garbage":
            rows.insert(i, [draw(st.text(max_size=20))])
        elif fault == "overlong":
            # one field over csv.field_size_limit(), 131,072 characters by default
            rows.insert(i, ["1" * 131_073, "130", "99", "2019", "5998"])
        elif fault == "band":
            rows.append(draw(st.lists(SCALE_NUMBERS, min_size=5, max_size=5)))
        elif not rows or len(rows[i]) != len(SCALE_HEADER.split(",")):
            continue  # no row to break, or an earlier fault already broke this one
        elif fault == "fields":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else [*rows[i], "0"]
        elif fault == "number":
            rows[i][draw(st.integers(0, 4))] = draw(SCALE_NUMBERS)
        elif fault == "order":
            rows[i][2:] = draw(st.permutations(rows[i][2:]))
        elif fault == "ages":
            rows[i][:2] = draw(st.sampled_from([["30", "18"], ["0", "3"], ["40", "130"]]))
        elif fault == "ascii":
            # a cell int() or float() would read as its own value
            k = draw(st.integers(0, 4))
            cell = rows[i][k] or "0"  # an earlier "number" fault may have emptied it
            digits = draw(st.sampled_from(OTHER_DIGITS))
            rows[i][k] = draw(st.sampled_from([
                cell[0] + "_" + (cell[1:] or "0"), cell.translate(digits), "\u00a0" + cell,
                cell + "\u3000",
            ]))
    return "".join(line + "\n" for line in [header, *(",".join(r) for r in rows)])


@FUZZ
@given(text=bad_scale_files(), command=st.sampled_from(["sleep", "run"]))
def test_bad_scale_files(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        recording = workdir / "day.csv"
        recording.write_text("".join(
            line + "\n" for line in [HEADER, *(",".join(row(m)) for m in range(12))]
        ))
        scale = workdir / "scale.csv"
        scale.write_text(text, encoding="utf-8")
        out = {"sleep": "--out", "run": "--report"}[command]
        code, err = cli(
            [command, "--in", str(recording), "--scale-file", str(scale), out,
             str(workdir / "out")],
            workdir,
        )
        # a scale fault, from its header to a band the age misses, is exit 3;
        # a good scale leaves this sleepless recording an empty dataset (4)
        assert code in {0, 3, 4}, err
        if code == 3:
            assert err.startswith("validation failure: "), err
        # a number with a `_` separator or a non-ASCII digit is a scale fault
        rows = text.partition("\n")[2]
        if "_" in rows or not rows.isascii():
            assert code == 3, (text, err)


DATASET_HEADER = "segment_id,frac_sed,frac_light,frac_mod,frac_vig,awake_min,efficiency,label"
TABLE_NUMBERS = st.one_of(
    st.sampled_from([
        "0", "1", "0.5", "-0.0", "5e-324", "1e308", "-1e308", "-1", "1.5", "nan", "inf", "-inf",
        "", "x", "0_5", "٠.٥", "\u00a00.5", "0.5\u3000", " 0.5 ",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def plain_number(cell: str, low: float, high: float) -> bool:
    """True when ``cell`` is a finite ASCII number without `_`, in [low, high]."""
    try:
        value = float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell and math.isfinite(value) and low <= value <= high


def dataset_row(i: int) -> list[str]:
    """A valid dataset row; the labels alternate poor and good."""
    efficiency, label = (("0.5", "poor"), ("0.9", "good"))[i % 2]
    return [f"s{i}", "0.7", "0.1", "0.1", "0.1", str(30 + i), efficiency, label]


def score_row(i: int) -> list[str]:
    """A valid score,label row; the labels cycle through every token."""
    return [str(i / 10), ("poor", "good", "0", "1")[i % 4]]


@st.composite
def table_csvs(draw, header: str, row_of, ranges: dict) -> tuple[str, bool]:
    """Six rows of ``row_of``, one number among them drawn, then up to two
    faults, each a new row or the header; the text, and whether it is sure
    to be refused (exit 2).  ``ranges`` maps each number column to its range;
    the label is the last column."""
    rows = [row_of(i) for i in range(6)]
    k = draw(st.sampled_from(sorted(ranges)))
    number = rows[draw(st.integers(0, 5))][k] = draw(TABLE_NUMBERS)
    refused = not plain_number(number, *ranges[k])
    first = header
    for n in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from([
            "header", "fields", "label", "garbage", "blank", "overlong", "empty",
        ]))
        if fault == "empty":
            return "", True
        refused |= fault in ("header", "fields", "label", "overlong")
        if fault == "header":
            first = draw(st.sampled_from([
                header.upper(), header.rsplit(",", 1)[0], "", "\ufeff\ufeff" + header, header + ",extra",
            ]))
            continue
        row = row_of(6 + n)
        if fault == "blank":
            row = []
        elif fault == "garbage":
            row = [draw(st.text(max_size=20))]
        elif fault == "overlong":
            row[0] = "s" * 131_073
        elif fault == "fields":
            row = row[:-1] if draw(st.booleans()) else [*row, "0"]
        elif fault == "label":
            row[-1] = draw(st.sampled_from(["", "meh", "2", "goodness"]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return "".join(line + "\n" for line in [first, *(",".join(r) for r in rows)]), refused


# fractions and efficiency lie in [0, 1], awake minutes at or above 0
DATASET_RANGES = {k: (0.0, math.inf if k == 5 else 1.0) for k in range(1, 7)}


@FUZZ
@given(case=table_csvs(DATASET_HEADER, dataset_row, DATASET_RANGES),
       model=st.sampled_from(["logreg", "adaboost", "rf"]))
def test_bad_dataset_csvs(case, model):
    text, refused = case
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        dataset = workdir / "dataset.csv"
        dataset.write_text(text, encoding="utf-8")
        out_dir = workdir / "model"
        code, err = cli(["train", "--in", str(dataset), "--model", model, "--folds", "2",
                         "--out-dir", str(out_dir)], workdir, wrote=True)
        if refused:
            assert code == 2 and err.startswith("parse error: "), (text, err)
        if code == 0:
            assert (out_dir / "model_report.json").is_file()


@FUZZ
@given(case=table_csvs("score,label", score_row, {0: (-math.inf, math.inf)}),
       threshold=st.sampled_from(["0.5", "0", "1", "-3"]))
def test_bad_score_csvs(case, threshold):
    text, refused = case
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        scored = workdir / "scored.csv"
        scored.write_text(text, encoding="utf-8")
        out = workdir / "eval.json"
        code, err = cli(["eval", "--in", str(scored), "--threshold", threshold, "--out", str(out)],
                        workdir, wrote=True)
        if refused:
            assert code == 2 and err.startswith("parse error: "), (text, err)
        if code == 0:
            assert json.loads(out.read_text())
