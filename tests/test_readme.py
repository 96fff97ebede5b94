"""The README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from rahar.ingest import serialize_epoch_csv
from rahar.synth import ActivityBlock, DayProfile, generate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_on_a_synthetic_recording(tmp_path, monkeypatch):
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", README.read_text(),
                      re.DOTALL)
    assert block, "README has no quick-start block"
    series, truth = generate(DayProfile(
        schedule=(
            ActivityBlock("sedentary", 120), ActivityBlock("sleep", 480),
            ActivityBlock("light", 100), ActivityBlock("moderate", 60),
            ActivityBlock("sleep", 420), ActivityBlock("light", 60),
        ),
        seed=5,
    ))
    with open(tmp_path / "subject.csv", "w", newline="", encoding="utf-8") as fh:
        serialize_epoch_csv(series, fh)
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(block.group(1), str(README), "exec"), names)
    assert names["periods"] == truth.periods
    assert len(names["segments"]) == 2 and len(names["modes"]) >= 1
