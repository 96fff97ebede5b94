"""The bytes of a full run, pinned.

Criterion 10 compares two runs of the same tree with each other.  These
tests compare one run with SHA-256 digests recorded before a change, so a
refactor or a speedup that moves any byte of any report, the dataset or
the model outputs fails here.  ``manifest.json`` is left out: its
``timings_s`` differ on every run, and its ``outputs`` digests are the
pinned ones.

Two small studies built from ``rahar.synth`` profiles, each run with
``--model rf`` (which uses no ``exp``, ``log`` or LAPACK, so no float that
depends on SIMD paths or on the BLAS reaches a pinned byte):

``naps``        3 recordings x 3 days of a night plus two naps; every awake
                span has 80-260 epochs, so the change-point stage runs.
``polyphasic``  2 recordings of 13 sleep bouts; every awake span has fewer
                than 60 epochs (2 x min_segment), so change points are
                bypassed and the rows come from the sleep stage alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from rahar.cli import main
from rahar.ingest import serialize_epoch_csv
from rahar.synth import ActivityBlock as B
from rahar.synth import DayProfile, generate


def naps_day(i: int) -> tuple[B, ...]:
    """A night, then three awake spans of 80-260 epochs split by two naps."""
    return (
        B("sleep", 420 + 10 * i), B("light", 70), B("moderate", 50),
        B("sleep", 30 + 5 * i), B("moderate", 45), B("sedentary", 35),
        B("sleep", 40), B("light", 90), B("sedentary", 30 + 10 * i), B("moderate", 60),
    )


def polyphasic_cycle(i: int) -> tuple[B, ...]:
    """A sleep bout, then an awake span of 30-58 epochs; every third span
    ends in a sedentary wind-down, which lowers the next bout's efficiency."""
    if i % 3 == 0:
        return (B("sleep", 70 + 7 * i), B("light", 20 + i % 5), B("sedentary", 15 + i % 7))
    return (B("sleep", 70 + 7 * i), B(("light", "moderate")[i % 2], 30 + 3 * i % 29))


STUDIES = {
    "naps": [
        DayProfile(
            sum((naps_day(3 * r + d) for d in range(3)), ()) + (B("sleep", 400), B("light", 60)),
            noise=0.02,
            seed=100 + r,
        )
        for r in range(3)
    ],
    "polyphasic": [
        DayProfile(
            sum((polyphasic_cycle(c + r) for c in range(12)), ()) + (B("sleep", 80), B("light", 45)),
            noise=0.02,
            seed=200 + r,
        )
        for r in range(2)
    ],
}

# recorded from `rahar run --model rf` on each study before the change that
# added these pins, every other flag at its default; the two roc.csv digests
# were recorded later, once its cells were plain decimals
PINS = {
    "naps": {
        "dataset.csv":
            "8eab048435e48a84882e5e766ce6f4317e060c2d2b253cb2da2188f709ab91bd",
        "model_report.json":
            "af04167884420a112931c18384dec0f933f22a5558778806b4d4358607f1c898",
        "naps0.changepoints.csv":
            "f7169d926c7b99d0f0b95e6641f2f176c133e918a562f2326c1e4c9708b8fa93",
        "naps0.modes.csv":
            "130c9c24676f37882ee3e0d867b005e8d3ff8a29f2789aaf8a59aaa5f31d90ba",
        "naps0.segments.csv":
            "55b397cdb0e79fc08878b6058bf1c8a059a6fc75cc90674b88c4e74f8c9fd3e2",
        "naps0.sleep.json":
            "53c3ac86def422c245e68d8923b8415c3c7e1793f2bce46052e202ac1ed6c725",
        "naps1.changepoints.csv":
            "dca3d4f00f3493e66447bdbfab479abdf19c78e66f30fb9564a15b7d52ee21cf",
        "naps1.modes.csv":
            "80302a865711b0af78e7d2860586f42e2966d73eec5d0b737c94030c81598569",
        "naps1.segments.csv":
            "40954481bee770dbc2534623c7aee98f2b1053c968fb4bf739f9aa393e5fed3f",
        "naps1.sleep.json":
            "cbe735f76d28192a1295083633fd5b4cefd9adb0b638ca3733b467b531650a5f",
        "naps2.changepoints.csv":
            "6ff9b14e043c1b3896d875a7513e115ea1ce26faa3cf1c2ff7d2bea64f8258bc",
        "naps2.modes.csv":
            "79548886c3b8b0f2bdf9523caa3d687a79a7f7cfdafd368f114a998f4140342f",
        "naps2.segments.csv":
            "09a487a4ae55260a09b1e817f067b505e08a88b4da411f31a1938741676dec1b",
        "naps2.sleep.json":
            "99a8b18dadb04a4bba288f7f30ba833d83e90df3eece4348d5404290b1cd3ec3",
        "roc.csv":
            "b8cdf0e8a2e16db059655a0a5f7690abbaffff6e46c81321267eb7bf7a29ad90",
        "roc.svg":
            "8f958345cee4f3f9a4e10daa38b026fc8645d709caeda28b07aae5cb613fc238",
    },
    "polyphasic": {
        "dataset.csv":
            "9ea6dca62e1b51c7be21f7ac7bf8bdf2f601518577cdbb7648ed98d9357db20e",
        "model_report.json":
            "1484f3ae08944f3418394d1378e4db593c2f9f9b91186128a0e7f087a2c875e1",
        "polyphasic0.changepoints.csv":
            "36a57d68936af0be0437ab31b12b60ab2eb5ae0db23cb477dbbd0e7c92acfdb5",
        "polyphasic0.modes.csv":
            "03df156d5c4013e25427f52c8d98280521177b307d7801f7e1645fed46aaccd6",
        "polyphasic0.segments.csv":
            "1713d87570b2948f9ba420bd391a408992395a508a6f52d2702a060e80a41ae8",
        "polyphasic0.sleep.json":
            "deaf64eb3f504b5c2e285afa18ebe186bb01ce8607a0d73ce338aa0138441dea",
        "polyphasic1.changepoints.csv":
            "36a57d68936af0be0437ab31b12b60ab2eb5ae0db23cb477dbbd0e7c92acfdb5",
        "polyphasic1.modes.csv":
            "fa2feb18b2324cf443a4d1a85a1a8e8bc723eebb63dd3c364e06d9ff5b95c9ab",
        "polyphasic1.segments.csv":
            "74aa87f6c5162f193e8f8f0c9104eb1faeb75feabcb2c557056b9c54da8dad38",
        "polyphasic1.sleep.json":
            "4d19a5f28c9ee3c36c3e290de769fb6762aed7b9485cb5f8e0b2989953ce1863",
        "roc.csv":
            "f810d6c1d092edf07a4f9161c6de38b0542f755ccaf9d74ae57dce913d8ca941",
        "roc.svg":
            "89c8bc4fed4683c1db014a68ab57d22332ace1775ef45980a3dbcd6a1d6b41d4",
    },
}


def run_study(study: str, tmp_path: Path) -> Path:
    recordings = tmp_path / study
    recordings.mkdir()
    for r, profile in enumerate(STUDIES[study]):
        series, _ = generate(profile)
        with open(recordings / f"{study}{r}.csv", "w", newline="", encoding="utf-8") as fh:
            serialize_epoch_csv(series, fh)
    report = tmp_path / "report"
    assert main(["run", "--in", str(recordings), "--report", str(report), "--model", "rf"]) == 0
    return report


@pytest.mark.parametrize("study", STUDIES)
def test_full_run_bytes_equal_pins(study, tmp_path):
    report = run_study(study, tmp_path)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(report.iterdir())
        if p.name != "manifest.json"
    }
    assert digests == PINS[study]
    assert json.loads((report / "manifest.json").read_text())["outputs"] == PINS[study]
