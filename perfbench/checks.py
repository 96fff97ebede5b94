"""Correctness of one `rahar run` output directory against the planted truth.

A run is correct when
- the detected sleep periods equal the planted ones exactly;
- the segment bounds are the ones the planted schedule implies;
- every planted boundary between distinct awake modes with at least
  ``min_segment`` epochs on both sides, inside an analyzed awake span, has
  a detected change point within ``TOLERANCE`` epochs, and no change point
  lies in a span too short to split;
- ``dataset.csv`` has exactly the rows, and the good/poor label of each,
  that the planted wind-downs imply.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from workloads import MIN_SEGMENT, Recording, checkable_boundaries, segments_of

TOLERANCE = 5  # epochs between a planted and a detected boundary


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expected_rows(recordings: list[Recording]) -> list[tuple[str, str]]:
    """(segment_id, label) of every dataset row the truth implies, in file order."""
    rows = []
    for rec in recordings:
        for k, seg in enumerate(segments_of(rec.truth.mode_schedule)):
            if seg.is_row:
                rows.append((f"{rec.name}:{k:03d}", "poor" if seg.poor else "good"))
    return rows


def check_recording(rec: Recording, out_dir: Path) -> list[str]:
    problems = []
    report = json.loads((out_dir / f"{rec.name}.sleep.json").read_text())
    found = [(p["onset_index"], p["awakening_index"], p["truncated"]) for p in report]
    planted = [(p.onset_index, p.awakening_index, p.truncated) for p in rec.truth.periods]
    if found != planted:
        problems.append(f"{rec.name}: {len(found)} sleep periods detected, {len(planted)} planted, or bounds differ")

    segments = segments_of(rec.truth.mode_schedule)
    seg_rows = _csv_rows(out_dir / f"{rec.name}.segments.csv")
    bounds = [(int(r["awake_start"]), int(r["awake_end"])) for r in seg_rows]
    if bounds != [(s.awake_start, s.awake_end) for s in segments]:
        problems.append(f"{rec.name}: segment bounds differ from the planted schedule")
        return problems

    detected: dict[int, list[int]] = {}
    for row in _csv_rows(out_dir / f"{rec.name}.changepoints.csv"):
        k = int(row["segment_id"].rsplit(":", 1)[1])
        detected.setdefault(k, []).append(segments[k].awake_start + int(row["cp_index"]))
    for k, seg in enumerate(segments):
        if seg.awake_epochs < 2 * MIN_SEGMENT and detected.get(k):
            problems.append(f"{rec.name}:{k:03d}: change point in a span of {seg.awake_epochs} epochs")
    for b in checkable_boundaries(rec.truth.mode_schedule):
        k = next((k for k, s in enumerate(segments) if s.awake_start < b < s.awake_end), None)
        if k is None:
            continue  # the trailing awake span after the last sleep is not analyzed
        if not any(abs(c - b) <= TOLERANCE for c in detected.get(k, [])):
            problems.append(f"{rec.name}:{k:03d}: planted boundary at {b} not recovered")
    return problems


def check_outputs(recordings: list[Recording], out_dir: Path) -> list[str]:
    """Every way the run's outputs disagree with the planted truth (empty if none)."""
    problems = []
    for rec in recordings:
        problems += check_recording(rec, out_dir)
    rows = [(r["segment_id"], r["label"]) for r in _csv_rows(out_dir / "dataset.csv")]
    expected = expected_rows(recordings)
    if rows != expected:
        poor = sum(label == "poor" for _, label in rows)
        want = sum(label == "poor" for _, label in expected)
        problems.append(
            f"dataset.csv: {len(rows)} rows ({poor} poor), truth implies {len(expected)} ({want} poor)"
        )
    return problems
