"""Seeded synthetic actigraphy with planted ground truth.

A day profile is an ordered schedule of blocks (sleep or an awake
intensity mode), each with a duration and a per-axis count distribution.
The generator emits a minute-epoch series plus the exact truth needed by
oracle tests: planted sleep periods, awake-block boundaries (the change
points an estimator should recover), and the block schedule itself.

Counts are drawn from an overdispersed negative-binomial family (real
actigraphy counts are overdispersed; tests only rely on separation
between blocks, not on the family).  Sleep blocks emit all-zero epochs
with inclinometer "off"; optional noise inserts isolated single-epoch
movement inside sleep, placed so that the planted onset/awakening and a
zero WASO stay exact.  Awake epochs always carry at least one count on
axis1 so an awake block can never masquerade as candidate sleep.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import InvalidProfile, ParseError
from .ingest import MAX_COUNT, EpochSeries, Inclinometer, read_input, read_timestamp, split_instant
from .reports import write_json, write_outputs
from .sleep import SleepPeriod, SleepRules

SLEEP = "sleep"
AWAKE_MODES = ("sedentary", "light", "moderate", "vigorous")

# default axis1 means chosen to land inside the adult Troiano bands
_DEFAULT_MEANS = {
    "sedentary": (20.0, 12.0, 8.0),
    "light": (700.0, 420.0, 280.0),
    "moderate": (3500.0, 2100.0, 1400.0),
    "vigorous": (7500.0, 4500.0, 3000.0),
}
_DEFAULT_STEPS = {"sedentary": 0.0, "light": 40.0, "moderate": 90.0, "vigorous": 130.0}
_DEFAULT_INCLINOMETER = {
    SLEEP: Inclinometer.OFF,
    "sedentary": Inclinometer.SITTING,
    "light": Inclinometer.STANDING,
    "moderate": Inclinometer.STANDING,
    "vigorous": Inclinometer.STANDING,
}


# --- profile JSON: each field's converters from and to its JSON value ---------

def _number(value) -> int | float:
    """``value`` when it is a JSON number; int() and float() also take a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _real(value) -> float:
    return float(_number(value))


def _whole(value) -> int:
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value}")
    return int(value)


def _numbers(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(_real(v) for v in value)


def _blocks(value) -> tuple[ActivityBlock, ...]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of blocks, got {value!r}")
    return tuple(_from_json(ActivityBlock, item, f"schedule[{i}]") for i, item in enumerate(value))


def _json(read, write=lambda value: value, **default):
    """A profile field read from JSON by ``read`` and written by ``write``; its key
    may be absent when it has a default, and is not written when it holds None."""
    return field(metadata={"read": read, "write": write}, **default)


@dataclass(frozen=True)
class ActivityBlock:
    mode: str = _json(lambda mode: mode)
    duration_min: int = _json(_whole)
    mean_counts: tuple[float, float, float] | None = _json(_numbers, list, default=None)
    dispersion: float = _json(_real, default=50.0)
    mean_steps: float | None = _json(_real, default=None)

    def resolved_means(self) -> tuple[float, float, float]:
        if self.mean_counts is not None:
            return self.mean_counts
        if self.mode == SLEEP:
            return (0.0, 0.0, 0.0)
        return _DEFAULT_MEANS[self.mode]

    def resolved_steps(self) -> float:
        if self.mean_steps is not None:
            return self.mean_steps
        if self.mode == SLEEP:
            return 0.0
        return _DEFAULT_STEPS[self.mode]


@dataclass(frozen=True)
class DayProfile:
    schedule: tuple[ActivityBlock, ...] = _json(_blocks, lambda b: [*map(profile_to_dict, b)])
    noise: float = _json(_real, default=0.0)
    seed: int = _json(_whole, default=0)
    start: datetime = _json(read_timestamp, datetime.isoformat,
                            default=datetime(2014, 9, 1, 0, 0, tzinfo=timezone.utc))


@dataclass
class GroundTruth:
    periods: list[SleepPeriod]
    change_points: list[int]  # global epoch indices of awake-block boundaries
    mode_schedule: list[tuple[int, int, str]]  # (start, end, mode) per block


def validate_profile(profile: DayProfile, rules: SleepRules | None = None) -> None:
    """Reject profiles whose truth the default sleep rules could not recover."""
    rules = rules or SleepRules()
    if not profile.schedule:
        raise InvalidProfile("schedule is empty")
    if not 0.0 <= profile.noise < 1.0:
        raise InvalidProfile("noise must be in [0, 1)")
    if profile.seed < 0:
        raise InvalidProfile("seed must be non-negative")
    if profile.start.utcoffset() is None:
        raise InvalidProfile("start must carry a UTC offset; epoch CSVs require one")
    if profile.start.second or profile.start.microsecond:  # epochs are whole minutes
        raise InvalidProfile(f"start must be on a whole minute, got {profile.start.isoformat()}")
    awake_since_sleep = None  # None until the first sleep block is seen
    for i, block in enumerate(profile.schedule):
        place = f"schedule[{i}]"
        if block.mode != SLEEP and block.mode not in AWAKE_MODES:
            raise InvalidProfile(f"{place}: unknown block mode {block.mode!r}")
        if block.duration_min <= 0:
            raise InvalidProfile(
                f"{place}.duration_min must be positive, got {block.duration_min}"
            )
        if not 0.0 < block.dispersion < math.inf:
            raise InvalidProfile(
                f"{place}.dispersion must be finite and positive, got {block.dispersion}"
            )
        if block.mean_counts is not None and (
            len(block.mean_counts) != 3 or not all(0 <= m <= MAX_COUNT for m in block.mean_counts)
        ):
            raise InvalidProfile(
                f"{place}.mean_counts must be three numbers from 0 to the count ceiling of "
                f"{MAX_COUNT}, got {list(block.mean_counts)}"
            )
        if block.mean_steps is not None and not 0 <= block.mean_steps <= MAX_COUNT:  # NaN too
            raise InvalidProfile(
                f"{place}.mean_steps must be from 0 to the count ceiling of {MAX_COUNT}, "
                f"got {block.mean_steps}"
            )
        if block.mode == SLEEP:
            if block.duration_min <= rules.onset_run:
                raise InvalidProfile(
                    f"{place}: sleep blocks must exceed {rules.onset_run} minutes to be detectable"
                )
            if i > 0 and profile.schedule[i - 1].mode == SLEEP:
                raise InvalidProfile(f"{place}: adjacent sleep blocks are ambiguous; merge them")
            if awake_since_sleep is not None and awake_since_sleep < rules.awakening_gap:
                raise InvalidProfile(
                    f"{place}: awake span between sleep blocks must be >= "
                    f"{rules.awakening_gap} minutes"
                )
            awake_since_sleep = 0
        elif awake_since_sleep is not None:
            awake_since_sleep += block.duration_min
    try:  # the CSV writes each timestamp as a datetime in the start's offset
        profile.start + timedelta(minutes=sum(b.duration_min for b in profile.schedule))
    except OverflowError:
        raise InvalidProfile("the schedule runs past the year 9999") from None


def _draw_counts(
    rng: np.random.Generator, mean: float, dispersion: float, size: int, place: str
) -> np.ndarray:
    if mean <= 0:
        return np.zeros(size, dtype=np.int64)
    p = dispersion / (dispersion + mean)
    try:
        return rng.negative_binomial(dispersion, p, size=size).astype(np.int64)
    except ValueError:  # numpy refuses a p this close to 0
        raise InvalidProfile(f"{place}.dispersion {dispersion} is too small for mean {mean}")


def generate(profile: DayProfile, rules: SleepRules | None = None) -> tuple[EpochSeries, GroundTruth]:
    """Deterministic series + ground truth for a valid profile."""
    rules = rules or SleepRules()
    validate_profile(profile, rules)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([profile.seed])))
    stride = timedelta(minutes=1)

    blocks: list[np.ndarray] = []  # (duration, 4) axis1, axis2, axis3, steps per block
    states: list[np.ndarray] = []
    periods: list[SleepPeriod] = []
    change_points: list[int] = []
    mode_schedule: list[tuple[int, int, str]] = []
    cursor = 0
    total = sum(b.duration_min for b in profile.schedule)

    for i, block in enumerate(profile.schedule):
        place = f"schedule[{i}]"
        start, end = cursor, cursor + block.duration_min
        mode_schedule.append((start, end, block.mode))
        means = block.resolved_means()
        incl = _DEFAULT_INCLINOMETER[block.mode]
        if block.mode == SLEEP:
            axis = np.zeros((block.duration_min, 3), dtype=np.int64)
            steps = np.zeros(block.duration_min, dtype=np.int64)
            if profile.noise > 0:
                # isolated flips, kept clear of the onset window and the last
                # epoch, so the planted bounds and zero WASO remain exact
                flips = rng.random(block.duration_min) < profile.noise
                prev_flipped = False
                for k in range(block.duration_min):
                    if k < rules.onset_run or k >= block.duration_min - 1:
                        continue
                    if flips[k] and not prev_flipped:
                        axis[k, 0] = max(int(_draw_counts(rng, 150.0, 5.0, 1, place)[0]), 1)
                        axis[k, 1] = int(_draw_counts(rng, 90.0, 5.0, 1, place)[0])
                        prev_flipped = True
                    else:
                        prev_flipped = False
            truncated = i == len(profile.schedule) - 1 or (
                sum(b.duration_min for b in profile.schedule[i + 1 :]) < rules.awakening_gap
            )
            periods.append(SleepPeriod(start, end - 1, truncated=truncated))
        else:
            axis = np.column_stack(
                [_draw_counts(rng, m, block.dispersion, block.duration_min, place) for m in means]
            )
            # an awake epoch must never satisfy the candidate-sleep predicate
            axis[:, 0] = np.maximum(axis[:, 0], 1)
            steps = rng.poisson(block.resolved_steps(), size=block.duration_min).astype(np.int64)
            if i > 0 and profile.schedule[i - 1].mode in AWAKE_MODES:
                change_points.append(start)
        blocks.append(np.column_stack([axis, steps]))
        states.append(np.full(block.duration_min, incl, dtype=np.uint8))
        cursor = end

    assert cursor == total
    counts = np.concatenate(blocks)
    if counts.max() > MAX_COUNT:
        raise InvalidProfile(f"a drawn count exceeds the ceiling of {MAX_COUNT}; lower the means")
    start_us, offset_us = split_instant(profile.start)
    series = EpochSeries(
        start_us + np.arange(total, dtype=np.int64) * (stride // timedelta(microseconds=1)),
        np.full(total, offset_us, dtype=np.int64),
        counts,
        np.concatenate(states),
        stride,
    )
    return series, GroundTruth(periods, change_points, mode_schedule)


def _from_json(cls, item, place: str):
    """A ``cls`` from its JSON object ``item``, at ``place`` in the profile ("" for
    the profile itself); a key ``cls`` lacks, or a bad or missing value, is named
    by its place, such as ``schedule[2].dispersion``."""
    where = place or "profile"
    if not isinstance(item, dict):
        raise InvalidProfile(f"{where}: expected an object, got {item!r}")
    keys = sorted(f.name for f in fields(cls))
    unknown = sorted(item.keys() - set(keys))
    if unknown:
        hint = "; the subject's age is set with --age" if "subject" in unknown else ""
        raise InvalidProfile(f"{where}: unknown key(s) {unknown}, expected {keys}{hint}")
    values = {}
    for f in fields(cls):
        name = f"{place}.{f.name}" if place else f.name
        if f.name not in item and f.default is MISSING:
            raise InvalidProfile(f"{name}: missing")
        try:
            if f.name in item:
                values[f.name] = f.metadata["read"](item[f.name])
        except (TypeError, ValueError, OverflowError, ParseError) as exc:
            raise InvalidProfile(f"{name}: {exc}") from None
    return cls(**values)


def profile_to_dict(obj: DayProfile | ActivityBlock) -> dict:
    """A profile, or one of its blocks, as its JSON object."""
    return {
        f.name: f.metadata["write"](value)
        for f in fields(obj)
        if (value := getattr(obj, f.name)) is not None
    }


def profile_from_dict(payload: dict) -> DayProfile:
    """A profile from its JSON object; any key the format lacks is an error."""
    return _from_json(DayProfile, payload, "")


def _parse_profile(stream: TextIO) -> DayProfile:
    try:
        payload = json.loads("".join(stream))
    except json.JSONDecodeError as exc:
        raise InvalidProfile(f"not JSON: {exc}") from None
    return profile_from_dict(payload)


def load_profile(path: str | Path) -> DayProfile:
    return read_input(path, _parse_profile, InvalidProfile)


def save_profile(profile: DayProfile, path: str | Path) -> None:
    write_outputs({path: write_json}, profile_to_dict(profile))
