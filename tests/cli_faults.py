"""The CLI fault cases as one table, and the console-script runner that plays it.

Each case writes its files into an empty directory, runs one ``rahar``
command there with paths relative to that directory, and expects three
things: its exit code, exactly one line on stderr, and the directory left
as it found it, with the same names and the same bytes.  A file is literal
text or bytes, or ``RECORDING``: a copy of the one synthetic recording that
``rahar synth`` makes from ``DAY_PROFILE``.  Each documented exit code
(2 parse failure or bad command line, 3 validation failure, 4 empty
dataset, 5 model failure) has rows here.

``tests/test_cli.py`` plays every case in process through ``rahar.cli.main``.
Run as a script, ``python tests/cli_faults.py``, this module plays every
case through the installed ``rahar`` console script, each in a fresh
temporary directory, names each case that fails and exits 1 if one does.
It imports the standard library only, so it runs from outside the checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

PARSE, VALIDATION, EMPTY_DATASET, MODEL = 2, 3, 4, 5

# one good sleep is scored: a model fails on its one-class dataset
DAY_PROFILE = {"seed": 3, "schedule": [
    {"mode": "sedentary", "duration_min": 120}, {"mode": "sleep", "duration_min": 480},
    {"mode": "light", "duration_min": 100}, {"mode": "sedentary", "duration_min": 30},
    {"mode": "sleep", "duration_min": 420}, {"mode": "moderate", "duration_min": 100},
    {"mode": "sedentary", "duration_min": 190},
]}
RECORDING = "<the DAY_PROFILE recording>"


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    code: int
    line: str  # the one stderr line, without its newline
    files: dict  # relative path -> str, bytes or RECORDING


def case(name: str, argv: str | list[str], code: int, line: str, files: dict | None = None) -> Case:
    """A row; an ``argv`` string is split on spaces."""
    return Case(name, tuple(argv.split(" ") if isinstance(argv, str) else argv), code, line,
                files or {})


REC = {"rec.csv": RECORDING}
STUDY = {"study/a.csv": RECORDING, "study/b.csv": RECORDING}
EPOCH_COLUMNS = "timestamp,axis1,axis2,axis3,steps,inclinometer"
EPOCH_HEADER = EPOCH_COLUMNS + "\n"
EPOCH_ROW = "2014-09-01T22:00:00+00:00,0,0,0,0,off\n"
DATASET_COLUMNS = "segment_id,frac_sed,frac_light,frac_mod,frac_vig,awake_min,efficiency,label"
DATASET_HEADER = DATASET_COLUMNS + "\n"
DATASET_ROW = "s0,0.7,0.1,0.1,0.1,100.0,0.9,good\n"
GOOD_ROWS = [DATASET_ROW.replace("s0", f"s{i}") for i in range(10)]
LATIN1_RECORDING = EPOCH_HEADER.encode() + b"2014-09-01T22:00:00+03:00,0,0,0,0,\xe9t\xe9\n"
GAPPY = EPOCH_HEADER + EPOCH_ROW + "2014-09-01T22:31:00+00:00,0,0,0,0,off\n"  # 30 missing
SCALE_HEADER = "age_min,age_max,sedentary_max,light_max,moderate_max\n"
MEAN_COUNTS_RULE = "mean_counts must be three numbers from 0 to the count ceiling of 1000000000"
FIELD_LIMIT = "validation failure: line 2: field larger than field limit (131072)"
KNOWN_BLOCK_KEYS = "['dispersion', 'duration_min', 'mean_counts', 'mean_steps', 'mode']"

RUN = "run --in rec.csv --report report"
TRAIN = "train --in ds.csv --model logreg --out-dir models"
EVAL = "eval --in scored.csv --out report.json"
SYNTH = "synth --profile p.json --out s.csv"
SCALE_SLEEP = "sleep --in rec.csv --scale-file scale.csv --out sleep.json"
# a recording whose `.sleep.json` and `.segments.csv` reports fit in Linux's
# 255-byte file name, and whose `.changepoints.csv` report does not
LONG_STEM = "r" * 240
LONG_TRUTH = "t" * 295 + ".json"  # 300 characters


def epochs(*cells: str) -> str:
    """An epoch CSV whose rows, a minute apart from 22:00 UTC, hold ``cells``
    after the timestamp."""
    return EPOCH_HEADER + "".join(
        f"2014-09-01T22:{minute:02d}:00+00:00,{row}\n" for minute, row in enumerate(cells)
    )


def dataset(*rows: str) -> dict:
    return {"ds.csv": DATASET_HEADER + "".join(rows)}


def scored(text: str) -> dict:
    return {"scored.csv": "score,label\n" + text}


def profile(text: str) -> dict:
    return {"p.json": text}


def third_block(block: str) -> dict:
    return profile('{"schedule": [{"mode": "sleep", "duration_min": 100}, '
                   f'{{"mode": "sedentary", "duration_min": 20}}, {{{block}}}]}}')


def scale(row: str) -> dict:
    return {**REC, "scale.csv": SCALE_HEADER + row + "\n"}


CASES = [
    # a flag value out of range: argparse rejects it before anything is read
    *(case(f"run{flag}-{value}", f"{RUN} {flag} {value}", PARSE,
           f"rahar run: error: argument {flag}: {message}", REC)
      for flag, value, message in [
          ("--permutations", "0", "n_permutations must be >= 1, got 0"),
          ("--min-segment", "1", "min_segment must be >= 2, got 1"),
          ("--significance", "0", "significance must be in (0, 1), got 0.0"),
          ("--significance", "1.5", "significance must be in (0, 1), got 1.5"),
          ("--significance", "nan", "significance must be in (0, 1), got nan"),
          ("--alpha-exp", "0", "alpha_exp must be in (0, 2), got 0.0"),
          ("--alpha-exp", "2", "alpha_exp must be in (0, 2), got 2.0"),
          ("--folds", "1", "folds must be >= 2, got 1"),
          ("--efficiency-threshold", "7", "efficiency_threshold must be in (0, 1], got 7.0"),
          ("--efficiency-threshold", "0", "efficiency_threshold must be in (0, 1], got 0.0"),
          ("--aggregate", "0", "aggregate must be in [1, 1439999999999], got 0"),
          ("--seed", "-1", "master_seed must be non-negative, got -1"),
          ("--min-awake-min", "nan", "min_awake_min must be >= 0, got nan"),
          ("--min-awake-min", "-1", "min_awake_min must be >= 0, got -1.0"),
          ("--min-sleep-min", "-1", "min_sleep_min must be >= 0, got -1"),
      ]),
    case("run--aggregate=99999999999999999999", f"{RUN} --aggregate=99999999999999999999", PARSE,
         "rahar run: error: argument --aggregate: aggregate must be in [1, 1439999999999],"
         " got 99999999999999999999", REC),
    case("train--folds-1", "train --in ds.csv --model logreg --folds 1 --out-dir models", PARSE,
         "rahar train: error: argument --folds: folds must be >= 2, got 1"),
    case("run--model-rf--seed--1", "run --in study --report out --model rf --seed -1", PARSE,
         "rahar run: error: argument --seed: master_seed must be non-negative, got -1", STUDY),
    case("train--model-rf--seed--2", "train --in study --out-dir out --model rf --seed -2", PARSE,
         "rahar train: error: argument --seed: master_seed must be non-negative, got -2", STUDY),
    case("run--seed=--", f"{RUN} --seed=--", PARSE,
         "rahar: error: an option was given '--' as its value", REC),
    case("run--out-newline", [*RUN.split(" "), "--out=x\ny"], PARSE,
         r"rahar: error: unrecognized arguments: --out=x\ny", REC),
    # a flag no stage of the command reads
    case("validate--model-rf", "validate --in rec.csv --model rf", PARSE,
         "rahar: error: unrecognized arguments: --model rf", REC),
    case("features--awake-feature", "features --in rec.csv --out dataset.csv --awake-feature",
         PARSE, "rahar: error: unrecognized arguments: --awake-feature", REC),
    case("rahar-no-command", [], PARSE,
         "rahar: error: the following arguments are required: command"),
    *(case(f"eval--threshold-{value}", f"{EVAL} --threshold {value}", PARSE,
           f"parse error: --threshold must be a finite number, got {value}",
           scored("0.9,good\n0.2,poor\n"))
      for value in ("nan", "inf")),

    # an epoch CSV that does not parse: one line naming its physical line
    case("validate-bad-header", "validate --in bad.csv", PARSE,
         f"parse error: bad header ['nonsense', 'header'], expected {EPOCH_COLUMNS}",
         {"bad.csv": "nonsense,header\n1,2\n"}),
    case("sleep-missing-input", "sleep --in nope.csv", PARSE,
         "parse error: input nope.csv does not exist"),
    # `validate` reads the one file it was given; `run` names a file it cannot load
    *(case(f"{command}-{name}", f"{command} --in {file}{flags}{report}", code,
           message.format(at=f"{file}: " if report else ""), {file: text})
      for name, file, flags, text, code, message in [
          ("naive-timestamp", "mixed.csv", "",
           epochs(*["0,0,0,0,off"] * 10) + "2014-09-01T22:10:00,0,0,0,0,off\n", PARSE,
           "parse error: {at}line 12: timestamp '2014-09-01T22:10:00' has no UTC offset"),
          ("count-over-ceiling", "huge.csv", "",
           epochs("0,0,0,0,off", "99999999999999999999999,0,0,0,off"), PARSE,
           "parse error: {at}line 3: axis1 99999999999999999999999 exceeds the ceiling of"
           " 1000000000"),
          ("latin1", "latin1.csv", "", LATIN1_RECORDING, PARSE,
           "parse error: {at}line 2: not UTF-8"),
          ("century-gap-fill", "century.csv", " --fill-gaps sedentary-zero",
           EPOCH_HEADER + "1914-09-01T22:00:00+03:00,0,0,0,0,off\n"
           "2014-09-01T22:01:00+03:00,0,0,0,0,off\n", VALIDATION,
           "validation failure: {at}gaps miss 52596000 epochs, more than the 1048576 gap filling"
           " may insert"),
      ]
      for command, report in [("validate", ""), ("run", " --report report"),
                              ("features", " --out dataset.csv")]),
    case("validate-multiline-record", "validate --in multiline.csv", PARSE,
         "parse error: line 4: axis1 'x' is not an integer",
         {"multiline.csv": EPOCH_HEADER + '2014-09-01T22:00:00+03:00,"0\n",0,0,0,off\n'
          "2014-09-01T22:01:00+03:00,x,0,0,0,off\n"}),
    # an offset minute of 60 is out of range, not read as the next hour
    case("validate-offset-minute-60", "validate --in offset.csv", PARSE,
         "parse error: line 3: bad timestamp '2014-09-01T22:01:00+05:60'",
         {"offset.csv": epochs("0,0,0,0,off") + "2014-09-01T22:01:00+05:60,0,0,0,0,off\n"}),
    case("validate-field-over-limit", "validate --in day.csv", PARSE,
         "parse error: line 2: field larger than field limit (131072)",
         {"day.csv": epochs("5,0,0,0," + "x" * 200_000)}),
    case("validate-header-field-over-limit", "validate --in day.csv", PARSE,
         "parse error: line 1: field larger than field limit (131072)",
         {"day.csv": "timestamp" + "x" * 200_000 + EPOCH_HEADER[len("timestamp"):] + EPOCH_ROW}),
    # numbers are plain ASCII: no `_`, no other digits, no non-ASCII padding
    *(case(f"validate-axis1-{name}", "validate --in day.csv", PARSE,
           f"parse error: line 3: axis1 {token!r} is not an integer",
           {"day.csv": epochs("0,0,0,0,off", f"{token},0,0,0,off")})
      for name, token in [
          ("1_0", "1_0"), ("arabic-12", "١٢"), ("+5", "+5"), ("-0", "-0"),
          ("5000-digits", "9" * 5000), ("-5000-digits", "-" + "9" * 5000),
          ("non-ascii-padding", "\u00a05\u3000"),
      ]),
    case("validate-axis1-1_0-first-row", "validate --in underscore.csv", PARSE,
         "parse error: line 2: axis1 '1_0' is not an integer",
         {"underscore.csv": epochs("1_0,0,0,0,off")}),
    case("validate-axis1-nbsp", "validate --in nbsp.csv", PARSE,
         "parse error: line 2: axis1 '\\xa05' is not an integer",
         {"nbsp.csv": epochs("\u00a05,0,0,0,off")}),
    *(case(f"validate-header-{name}", "validate --in day.csv", PARSE,
           f"parse error: bad header {[f'timestamp{pad}', *EPOCH_COLUMNS.split(',')[1:]]},"
           f" expected {EPOCH_COLUMNS}",
           {"day.csv": f"timestamp{pad},axis1,axis2,axis3,steps,inclinometer\n" + EPOCH_ROW})
      for name, pad in [("nbsp", "\u00a0"), ("ideographic-space", "\u3000")]),

    # a recording that parses but cannot be analysed
    case("validate-gap", "validate --in gappy.csv", VALIDATION,
         "validation failure: 1 gap(s): 2014-09-01T22:01:00+00:00 (30 missing)",
         {"gappy.csv": GAPPY}),
    # every file of a study loads before any is analysed, and a fault names its file
    *(case(f"{command}-bad-timestamp-in-b", f"{command} --in study {out} out --age 200", PARSE,
           "parse error: b.csv: line 2: bad timestamp 'not-a-time'",
           {"study/a.csv": RECORDING,
            "study/b.csv": EPOCH_HEADER + "not-a-time,0,0,0,0,off\n"})
      for command, out in [("run", "--report"), ("features", "--out")]),
    case("run-gap-in-a", "run --in study --report report", VALIDATION,
         "validation failure: a.csv: 1 gap(s): 2014-09-01T22:01:00+00:00 (30 missing)",
         {"study/a.csv": GAPPY, "study/b.csv": RECORDING}),
    case("run-age-200", "run --in study --report report --age 200", VALIDATION,
         "validation failure: scale 'troiano-2008' has no band for age 200", STUDY),
    *(case(f"{command}-two-csvs", f"{command} --in study", PARSE,
           "parse error: study holds 2 .csv files; this command reads one", STUDY)
      for command in ["validate", "sleep", "segment", "changepoints", "modes"]),
    # a directory named like a recording is not one, nor is what it holds
    case("run-study-csv-is-a-directory", "run --in study --report report", PARSE,
         "parse error: no .csv files in study", {"study/x.csv/rec.csv": RECORDING}),

    # a scale or age band that does not resolve, with its file's line where it has one
    case("run-scale-bad-bounds", f"{RUN} --scale-file scale.csv", VALIDATION,
         "validation failure: sedentary_max < light_max < moderate_max must hold,"
         " got (500.0, 100.0, 2000.0)",
         scale("0,130,500,100,2000")),
    case("run-scale-sedentary--1", f"{RUN} --scale-file scale.csv", VALIDATION,
         "validation failure: sedentary_max must be greater than -1, got -1.0",
         scale("0,130,-1,2019,5998")),
    case("sleep-scale-header-only", SCALE_SLEEP, VALIDATION,
         "validation failure: scale file has no bands", {**REC, "scale.csv": SCALE_HEADER}),
    case("run-scale-missing", f"{RUN} --scale-file missing.csv", PARSE,
         "parse error: input missing.csv does not exist", REC),
    case("run-age-3", f"{RUN} --age 3", VALIDATION,
         "validation failure: scale 'troiano-2008' has no band for age 3", REC),
    # fields over csv.field_size_limit(), 131,072 characters by default
    case("run-scale-overlong-field", f"{RUN} --scale-file scale.csv", VALIDATION,
         FIELD_LIMIT, scale("0,130,99,2019," + "1" * 200_000)),
    case("sleep-scale-field-131073", SCALE_SLEEP, VALIDATION, FIELD_LIMIT,
         scale("0,130,99,2019," + "1" * 131_073)),
    *(case(f"sleep-scale-{name}", SCALE_SLEEP, VALIDATION, f"validation failure: line 2: {message}",
           scale(row))
      for name, row, message in [
          ("age-1_0", "1_0,130,99,2019,5998", "age_min '1_0' is not an integer"),
          ("age-arabic", "٠,130,99,2019,5998", "age_min '٠' is not an integer"),
          ("age-+0", "+0,130,99,2019,5998", "age_min '+0' is not an integer"),
          ("sedentary-9_9", "0,130,9_9,2019,5998", "bad sedentary_max '9_9'"),
          ("light-arabic", "0,130,99,٢٠١٩,5998", "bad light_max '٢٠١٩'"),
          ("age-nbsp", "\u00a00,130,99,2019,5998", "age_min '\\xa00' is not an integer"),
          ("sedentary-nbsp", "0,130,\u00a099,2019,5998", "bad sedentary_max '\\xa099'"),
          ("age--5", "-5,130,99,2019,5998", "age_min = -5 is negative"),
          ("sedentary-inf", "0,130,inf,2019,5998", "sedentary_max 'inf' is not a finite number"),
          ("age-over-ceiling", "0,1000000001,99,2019,5998",
           "age_max 1000000001 exceeds the ceiling of 1000000000"),
      ]),

    # the dataset holds no rows, or the model cannot train on it
    *(case(f"{command}-empty-dataset", f"{command} --in day.csv {out}", EMPTY_DATASET,
           "empty dataset: all segments were filtered out",
           {"day.csv": epochs(*["5,0,0,0,sitting"] * 3)})
      for command, out in [("run", "--report report"), ("features", "--out dataset.csv")]),
    case("run-model-one-class", f"{RUN} --model logreg", MODEL,
         "model failure: class 1 has 1 members, fewer than 5 folds", REC),
    case("train-no-model", "train --in ds.csv --out-dir models", MODEL,
         "model failure: train requires --model", dataset(DATASET_ROW)),
    case("train-logreg-one-class", "train --in ds.csv --model logreg --out-dir .", MODEL,
         "model failure: training labels contain a single class",
         dataset(*GOOD_ROWS)),
    *(case(f"train-rf-{name}", f"train --in ds.csv --model rf --folds {folds} --out-dir models",
           MODEL, f"model failure: {message}",
           dataset(*GOOD_ROWS, *[f"p{i},0.1,0.7,0.1,0.1,100.0,0.5,poor\n" for i in range(poor)]))
      for name, poor, folds, message in [
          ("one-class", 0, 2, "training labels contain a single class"),
          ("fewer-poor-than-folds", 2, 3, "class 0 has 2 members, fewer than 3 folds"),
      ]),
    case("train-rf-header-only", "train --in ds.csv --model rf --out-dir models", EMPTY_DATASET,
         "empty dataset: dataset file has no rows", dataset()),

    # a dataset CSV (`train`) that does not parse
    *(case(f"train-{name}", TRAIN, PARSE, f"parse error: {message}", {"ds.csv": text})
      for name, text, message in [
          ("bad-header", "segment_id,label\n" + DATASET_ROW,
           f"bad dataset header ['segment_id', 'label'], expected {DATASET_COLUMNS}"),
          ("label-meh", DATASET_HEADER + DATASET_ROW + DATASET_ROW.replace("good", "meh"),
           "line 3: label 'meh' is not good or poor"),
          ("3-fields", DATASET_HEADER + DATASET_ROW + "s1,0.7,0.1\n",
           "line 3: expected 8 fields, got 3"),
          # a quoted id spanning two lines: the bad row starts on line 4
          ("multiline-id", DATASET_HEADER + '"s\n0",0.7,0.1,0.1,0.1,100.0,0.9,good\n'
           + DATASET_ROW.replace("0.9", "x"), "line 4: bad efficiency 'x'"),
          ("frac-nan", DATASET_HEADER + DATASET_ROW + DATASET_ROW.replace("0.7", "nan"),
           "line 3: frac_sed 'nan' is not a finite number"),
          ("awake-inf", DATASET_HEADER + DATASET_ROW.replace("100.0", "inf"),
           "line 2: awake_min 'inf' is not a finite number"),
          # fractions and efficiency lie in [0, 1], awake minutes at or above 0
          ("frac-1e308", DATASET_HEADER + DATASET_ROW + DATASET_ROW.replace("0.7", "1e308"),
           "line 3: frac_sed '1e308' is outside [0, 1]"),
          ("frac--1e308", DATASET_HEADER + DATASET_ROW.replace("0.1,0.1,0.1", "-1e308,0.1,0.1"),
           "line 2: frac_light '-1e308' is outside [0, 1]"),
          ("efficiency-1.5", DATASET_HEADER + DATASET_ROW.replace("0.9", "1.5"),
           "line 2: efficiency '1.5' is outside [0, 1]"),
          ("awake--1", DATASET_HEADER + DATASET_ROW.replace("100.0", "-1"),
           "line 2: awake_min '-1' is outside [0, inf]"),
          ("empty-file", "", f"bad dataset header None, expected {DATASET_COLUMNS}"),
          ("frac-0_7", DATASET_HEADER + DATASET_ROW.replace("0.7", "0_7"),
           "line 2: bad frac_sed '0_7'"),
          ("frac-arabic", DATASET_HEADER + DATASET_ROW.replace("0.7", "٠.٧"),
           "line 2: bad frac_sed '٠.٧'"),
          # labels are lowercase, stripped of ASCII whitespace only
          *((f"label-{name}", DATASET_HEADER + DATASET_ROW.replace("good", token),
             f"line 2: label {token!r} is not good or poor")
            for name, token in [("GOOD", "GOOD"), ("Poor", "Poor"), ("nbsp-good", "\u00a0good"),
                                ("poor-ideographic-space", "poor\u3000")]),
      ]),
    # a score,label CSV (`eval`) that does not parse
    *(case(f"eval-{name}", EVAL, PARSE, f"parse error: {message}", {"scored.csv": text})
      for name, text, message in [
          ("1-field", "score,label\n0.9,good\n0.4\n", "line 3: expected 2 fields, got 1"),
          ("label-excellent", "score,label\n0.9,excellent\n",
           "line 2: label must be good/poor or 0/1"),
          ("score-high", "score,label\nhigh,good\n", "line 2: bad score 'high'"),
          ("score-nan", "score,label\n0.9,good\nnan,good\n",
           "line 3: score 'nan' is not a finite number"),
          ("score-inf", "score,label\ninf,good\n0.2,poor\n",
           "line 2: score 'inf' is not a finite number"),
          ("empty-file", "", "bad eval header None, expected score,label"),
          ("3-fields", "score,label\n0.9,good,x\n", "line 2: expected 2 fields, got 3"),
          ("score-0_9", "score,label\n0_9,good\n0.2,poor\n", "line 2: bad score '0_9'"),
          ("score-arabic", "score,label\n٠.٩,good\n0.2,poor\n", "line 2: bad score '٠.٩'"),
          ("header-nbsp", "score\u00a0,label\n0.9,good\n0.2,poor\n",
           "bad eval header ['score\\xa0', 'label'], expected score,label"),
          *((f"label-{name}", f"score,label\n0.9,{token}\n0.2,poor\n",
             "line 2: label must be good/poor or 0/1")
            for name, token in [("GOOD", "GOOD"), ("Poor", "Poor"), ("nbsp-good", "\u00a0good"),
                                ("poor-ideographic-space", "poor\u3000"), ("nbsp-1", "\u00a01")]),
      ]),
    case("eval-label-excellent-default-out", "eval --in scored.csv", PARSE,
         "parse error: line 2: label must be good/poor or 0/1", scored("0.9,excellent\n")),

    # a day profile `synth` cannot draw from, named by its place in the profile
    *(case(f"synth-{name}", SYNTH, PARSE, f"profile error: schedule[0]{message}",
           profile(f'{{"schedule": [{{"mode": "light", "duration_min": 60, "{key}": {value}}}]}}'))
      for name, key, value, message in [
          ("dispersion-1e400", "dispersion", "1e400",
           ".dispersion must be finite and positive, got inf"),
          ("mean-counts-nan", "mean_counts", "[NaN, 1, 1]",
           f".{MEAN_COUNTS_RULE}, got [nan, 1.0, 1.0]"),
          ("mean-counts-1e300", "mean_counts", "[1e300, 1, 1]",
           f".{MEAN_COUNTS_RULE}, got [1e+300, 1.0, 1.0]"),
          ("mean-steps--5", "mean_steps", "-5",
           ".mean_steps must be from 0 to the count ceiling of 1000000000, got -5.0"),
          ("mean-counts-pair", "mean_counts", "[1, 1]", f".{MEAN_COUNTS_RULE}, got [1.0, 1.0]"),
          ("mean-counts-four", "mean_counts", "[1, 1, 1, 1]",
           f".{MEAN_COUNTS_RULE}, got [1.0, 1.0, 1.0, 1.0]"),
          ("duration-1.5", "duration_min", "1.5",
           ".duration_min: expected a whole number, got 1.5"),
          ("key-dispersoin", "dispersoin", "5",
           f": unknown key(s) ['dispersoin'], expected {KNOWN_BLOCK_KEYS}"),
          # a number in a profile is a JSON number, not a string
          ("duration-string", "duration_min", '"60"',
           ".duration_min: expected a number, got '60'"),
      ]),
    *(case(f"synth-block-2-{name}", SYNTH, PARSE, f"profile error: schedule[2]{message}",
           third_block(block))
      for name, block, message in [
          ("key-dispersoin", '"mode": "light", "duration_min": 60, "dispersoin": 5',
           f": unknown key(s) ['dispersoin'], expected {KNOWN_BLOCK_KEYS}"),
          ("mode-napping", '"mode": "napping", "duration_min": 60',
           ": unknown block mode 'napping'"),
          ("duration-0", '"mode": "light", "duration_min": 0',
           ".duration_min must be positive, got 0"),
          ("dispersion-1e400", '"mode": "light", "duration_min": 60, "dispersion": 1e400',
           ".dispersion must be finite and positive, got inf"),
          ("mean-counts-pair", '"mode": "light", "duration_min": 60, "mean_counts": [1, 1]',
           f".{MEAN_COUNTS_RULE}, got [1.0, 1.0]"),
          ("mean-steps--5", '"mode": "light", "duration_min": 60, "mean_steps": -5',
           ".mean_steps must be from 0 to the count ceiling of 1000000000, got -5.0"),
          ("sleep-15", '"mode": "sleep", "duration_min": 15',
           ": sleep blocks must exceed 15 minutes to be detectable"),
          ("sleep-after-20", '"mode": "sleep", "duration_min": 100',
           ": awake span between sleep blocks must be >= 30 minutes"),
      ]),
    # numpy cannot draw at so small a dispersion
    *(case(f"synth{block}-dispersion-1e-300", SYNTH, PARSE,
           f"profile error: schedule[{index}].dispersion 1e-300 is too small for mean 700.0",
           files)
      for block, index, files in [
          # JSON keeps the last key
          ("", 0, profile('{"schedule": [{"mode": "light", "duration_min": 60,'
                          ' "dispersion": 1e-300}]}')),
          ("-block-2", 2,
           third_block('"mode": "light", "duration_min": 60, "dispersion": 1e-300')),
      ]),
    *(case(f"synth-{name}", SYNTH, PARSE, f"profile error: {message}", profile(text))
      for name, text, message in [
          ("schedule-empty", '{"schedule": []}', "schedule is empty"),
          ("seed--1", '{"seed": -1, "schedule": [{"mode": "light", "duration_min": 60}]}',
           "seed must be non-negative"),
          ("count-over-ceiling", '{"seed": 1, "schedule": [{"mode": "light", "duration_min": 60,'
           ' "mean_counts": [1000000000, 1, 1], "dispersion": 1}]}',
           "a drawn count exceeds the ceiling of 1000000000; lower the means"),
          # an epoch CSV's timestamps are on whole minutes
          *((f"start-{name}", f'{{"start": "{start}", "schedule": [{{"mode": "light", '
             '"duration_min": 60}]}', f"start must be on a whole minute, got {shown}")
            for name, start, shown in [
                ("second-30", "2014-09-01T00:00:30+00:00", "2014-09-01T00:00:30+00:00"),
                ("fraction", "2014-09-01T00:00:00.5+00:00", "2014-09-01T00:00:00.500000+00:00"),
            ]),
      ]),
    # the age is a run parameter (--age): a recording cannot carry one
    case("synth-subject", SYNTH, PARSE,
         "profile error: profile: unknown key(s) ['subject'], expected ['noise', 'schedule',"
         " 'seed', 'start']; the subject's age is set with --age",
         profile('{"subject": {"age_years": 10}, '
                 '"schedule": [{"mode": "light", "duration_min": 60}]}')),
    case("synth-profile-not-json", SYNTH, PARSE,
         "profile error: not JSON: Expecting property name enclosed in double quotes:"
         " line 1 column 2 (char 1)",
         profile("{schedule")),
    # two outputs on one path: no file is written
    case("synth-truth-is-out", f"{SYNTH} --truth s.csv", PARSE,
         "parse error: --truth and --out both name s.csv", profile(json.dumps(DAY_PROFILE))),

    # an input that cannot be opened is a parse failure naming it, whatever its
    # format; a byte that is not UTF-8 is a fault in its contents, named by line
    *(case(f"{command}-missing-input", argv, PARSE, f"parse error: input {file} does not exist",
           files)
      for command, argv, file, files in [
          ("train", TRAIN, "ds.csv", {}), ("eval", EVAL, "scored.csv", {}),
          ("sleep-scale", SCALE_SLEEP, "scale.csv", REC), ("synth", SYNTH, "p.json", {}),
      ]),
    case("train-in-a-directory", "train --in study --model logreg --out-dir models", PARSE,
         "parse error: input study: Is a directory", STUDY),
    *(case(f"{name}-latin1", argv, code, line, files)
      for name, argv, code, line, files in [
          ("train", TRAIN, PARSE, "parse error: line 3: not UTF-8",
           {"ds.csv": (DATASET_HEADER + DATASET_ROW + DATASET_ROW.replace("good", "g\xe9"))
            .encode("latin-1")}),
          ("eval", EVAL, PARSE, "parse error: line 2: not UTF-8",
           {"scored.csv": "score,label\n0.9,g\xe9\n".encode("latin-1")}),
          ("sleep-scale", SCALE_SLEEP, VALIDATION, "validation failure: line 2: not UTF-8",
           {**REC, "scale.csv": (SCALE_HEADER + "0,130,99,2019,5998\xe9\n").encode("latin-1")}),
          ("synth", SYNTH, PARSE, "profile error: line 1: not UTF-8",
           {"p.json": '{"schedule": [{"mode": "l\xe9ger"}]}'.encode("latin-1")}),
          ("features-study", "features --in study --out dataset.csv", PARSE,
           "parse error: b.csv: line 2: not UTF-8",
           {"study/a.csv": RECORDING, "study/b.csv": LATIN1_RECORDING}),
      ]),

    # an output that cannot be written as asked exits before any work
    *(case(name, argv, PARSE, f"parse error: {line}", files)
      for name, argv, line, files in [
          ("features-out-is-a-directory", "features --in rec.csv --out .", "--out . is a directory",
           REC),
          ("sleep-out-is-a-directory", "sleep --in rec.csv --out report",
           "--out report is a directory", {**REC, "report/x": ""}),
          ("synth-out-is-a-directory", "synth --profile p.json --out .", "--out . is a directory",
           profile(json.dumps(DAY_PROFILE))),
          ("run-report-is-a-file", "run --in rec.csv --report rec.csv",
           "--report rec.csv/rec.sleep.json: rec.csv is not a directory", REC),
          ("train-out-dir-is-a-file", "train --in ds.csv --model logreg --out-dir ds.csv",
           "--out-dir ds.csv/model_report.json: ds.csv is not a directory", dataset(*GOOD_ROWS)),
          ("sleep-out-in-a-file", "sleep --in rec.csv --out rec.csv/sleep.json",
           "--out rec.csv/sleep.json: rec.csv is not a directory", REC),
          ("run-report-deep-in-a-file", "run --in rec.csv --report rec.csv/sub/report",
           "--report rec.csv/sub/report/rec.sleep.json: rec.csv is not a directory", REC),
          ("sleep-out-deep-in-a-file", "sleep --in rec.csv --out rec.csv/a/x.json",
           "--out rec.csv/a/x.json: rec.csv is not a directory", REC),
      ]),
    # an output name longer than the file system allows (255 bytes on Linux)
    case("run-name-too-long", "run --in study --report report", PARSE,
         f"parse error: --report report/{LONG_STEM}.changepoints.csv: a name in it is longer"
         " than 255 bytes", {f"study/{LONG_STEM}.csv": RECORDING}),
    case("synth-truth-name-too-long", f"{SYNTH} --truth {LONG_TRUTH}", PARSE,
         f"parse error: --truth {LONG_TRUTH}: a name in it is longer than 255 bytes",
         profile(json.dumps(DAY_PROFILE))),
    # an output that names an input (or another output) exits before any work
    *(case(f"{command}-out-is-in", f"{command} --in rec.csv --out rec.csv", PARSE,
           "parse error: --in and --out both name rec.csv", REC)
      for command in ["sleep", "segment", "changepoints", "modes", "features"]),
    case("modes-out-is-in-by-another-path", "modes --in one --out one/../one/rec.csv", PARSE,
         "parse error: --in and --out both name one/../one/rec.csv", {"one/rec.csv": RECORDING}),
    case("features-out-in-study", "features --in study --out study/b.csv", PARSE,
         "parse error: --in and --out both name study/b.csv", STUDY),
    case("features-default-out-is-in", "features --in dataset.csv", PARSE,
         "parse error: --in and --out both name dataset.csv", {"dataset.csv": RECORDING}),
    case("sleep-out-is-scale-file", "sleep --in rec.csv --scale-file scale.csv --out scale.csv",
         PARSE, "parse error: --scale-file and --out both name scale.csv",
         scale("0,130,99,2019,5998")),
    case("run-report-holds-input", "run --in dataset.csv --report .", PARSE,
         "parse error: --in and --report both name dataset.csv", {"dataset.csv": RECORDING}),
    case("run-report-holds-scale-file", f"{RUN} --scale-file report/rec.sleep.json", PARSE,
         "parse error: --scale-file and --report both name report/rec.sleep.json",
         {**REC, "report/rec.sleep.json": SCALE_HEADER + "0,130,99,2019,5998\n"}),
    case("train-out-dir-holds-input", "train --in models/roc.csv --model logreg --out-dir models",
         PARSE, "parse error: --in and --out-dir both name models/roc.csv",
         {"models/roc.csv": DATASET_HEADER + "".join(GOOD_ROWS)}),
    *(case(f"eval-{name}", f"eval --in {file}{out}", PARSE,
           f"parse error: --in and --out both name {file}", {file: "score,label\n0.9,good\n"})
      for name, file, out in [("out-is-in", "scored.csv", " --out scored.csv"),
                              ("default-out-is-in", "eval_report.json", "")]),
    *(case(f"synth-{flag}-is-profile", f"synth --profile p.json --{flag} p.json{rest}", PARSE,
           f"parse error: --profile and --{flag} both name p.json",
           profile(json.dumps(DAY_PROFILE)))
      for flag, rest in [("out", ""), ("truth", " --out s.csv")]),
]


def synth_argv(root: Path) -> list[str]:
    """The ``rahar synth`` arguments that write the shared recording to
    ``root/rec.csv``, after writing its profile there."""
    (root / "day.json").write_text(json.dumps(DAY_PROFILE), encoding="utf-8")
    return ["synth", "--profile", str(root / "day.json"), "--out", str(root / "rec.csv")]


def lay_out(case: Case, root: Path, recording: bytes) -> None:
    """Write the files of ``case`` under ``root``."""
    for name, content in case.files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is RECORDING:
            content = recording
        path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)


def snapshot(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root`` with its bytes, or None for a directory."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def problems(case: Case, code, err: str, before: dict, after: dict) -> list[str]:
    """How a run of ``case`` that exited ``code`` with stderr ``err``, and
    turned directory ``before`` into ``after``, broke the contract."""
    found = []
    if code != case.code or err != case.line + "\n":
        found.append(f"{case.name}: expected {case.code} {case.line!r}, got {code} {err!r}")
    if after != before:
        changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
        found.append(f"{case.name}: changed {changed}")
    return found


def main() -> int:
    """Play every case through the ``rahar`` console script; 1 if one fails."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        subprocess.run(["rahar", *synth_argv(root)], check=True, capture_output=True)
        recording = (root / "rec.csv").read_bytes()
        for number, case in enumerate(CASES):
            cwd = root / str(number)
            cwd.mkdir()
            lay_out(case, cwd, recording)
            before = snapshot(cwd)
            proc = subprocess.run(["rahar", *case.argv], cwd=cwd, capture_output=True)
            err = proc.stderr.decode("utf-8", "backslashreplace")
            failed += problems(case, proc.returncode, err, before, snapshot(cwd))
    print(*failed, f"{len(CASES)} cases, {len(failed)} problem(s)", sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
