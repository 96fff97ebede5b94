from __future__ import annotations

import os
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that replays a failure; unset, hypothesis keeps its default profile
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from rahar.ingest import EpochSeries, Inclinometer

from oracles import Epoch, series_of

T0 = datetime(2014, 9, 1, 22, 0, tzinfo=timezone(timedelta(hours=3)))


def make_epoch(
    minute: int,
    axis1: int = 0,
    axis2: int = 0,
    axis3: int = 0,
    steps: int = 0,
    inclinometer: Inclinometer = Inclinometer.OFF,
    start: datetime = T0,
) -> Epoch:
    return Epoch(start + timedelta(minutes=minute), axis1, axis2, axis3, steps, inclinometer)


def make_series(rows, start: datetime = T0) -> EpochSeries:
    """rows: iterable of kwargs dicts or axis1 ints, one per minute."""
    epochs = []
    for minute, row in enumerate(rows):
        if isinstance(row, dict):
            epochs.append(make_epoch(minute, start=start, **row))
        else:
            epochs.append(make_epoch(minute, axis1=int(row), start=start))
    return series_of(epochs, timedelta(seconds=60))


@pytest.fixture
def adult_scale():
    from rahar.cutpoints import builtin_troiano_scale

    return builtin_troiano_scale()
