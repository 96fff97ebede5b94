"""Automated sleep-period detection and clinical sleep metrics.

An epoch is a *candidate sleep record* when it shows no triaxial movement,
zero steps, and an accepted inclinometer state.  Candidate runs are then
tested against two run rules:

* sleep onset is the first epoch of a candidate run at least
  ``onset_run`` epochs long (default 15 minutes);
* sleep awakening is the last candidate epoch before a non-candidate run
  at least ``awakening_gap`` epochs long (default 30 minutes).  Shorter
  non-candidate bouts stay inside the sleep period.

From the resulting period the standard actigraphy quantities follow:
wake-after-sleep-onset (interior movement bouts strictly longer than
``waso_bout_min`` minutes), sleep latency (the sedentary run immediately
preceding onset), total minutes in bed (duration + latency), total sleep
time (duration - WASO - latency), and sleep efficiency (TST / TMB).

Note on the candidate predicate: the default accepted inclinometer set is
everything *except* lying down.  That is deliberate and surprising; see
the README before overriding it.  A recording that ends mid-sleep yields
a truncated period, closed at its last candidate epoch and flagged,
because the awakening rule cannot be verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutpoints import IntensityLevel
from .ingest import EpochSeries, Inclinometer


@dataclass(frozen=True)
class CandidateConfig:
    """Which stillness criteria an epoch must satisfy to be a sleep candidate."""

    require_zero_triaxial: bool = True
    require_zero_steps: bool = True
    inclinometer_accept: frozenset[Inclinometer] = frozenset(
        {Inclinometer.OFF, Inclinometer.STANDING, Inclinometer.SITTING}
    )

    def __post_init__(self):
        inclinometer_active = set(self.inclinometer_accept) != set(Inclinometer)
        if not (self.require_zero_triaxial or self.require_zero_steps or inclinometer_active):
            raise ValueError("at least one candidate criterion must be enabled")


@dataclass(frozen=True)
class SleepRules:
    onset_run: int = 15
    awakening_gap: int = 30
    waso_bout_min: int = 5  # a bout counts toward WASO only if strictly longer
    min_sleep_min: int = 0  # optional post-filter; 0 disables

    def __post_init__(self):
        if self.onset_run < 1 or self.awakening_gap < 1 or self.waso_bout_min < 1:
            raise ValueError("sleep rule thresholds must be positive")
        if self.min_sleep_min < 0:
            raise ValueError(f"min_sleep_min must be >= 0, got {self.min_sleep_min}")


@dataclass(frozen=True)
class SleepPeriod:
    """Epoch-index bounds of one sleep period, inclusive on both ends."""

    onset_index: int
    awakening_index: int
    truncated: bool = False

    def __post_init__(self):
        if self.onset_index > self.awakening_index:
            raise ValueError("onset must not come after awakening")

    @property
    def duration_epochs(self) -> int:
        return self.awakening_index - self.onset_index + 1


@dataclass(frozen=True)
class SleepMetrics:
    duration_min: float
    waso_min: float
    latency_min: float
    total_minutes_in_bed: float
    total_sleep_time_min: float
    efficiency: float
    preceding_sedentary_start_index: int
    tst_floored: bool = False  # WASO + latency exceeded duration; TST clamped to 0


def candidate_mask(series: EpochSeries, cfg: CandidateConfig | None = None) -> np.ndarray:
    """Boolean mask: True where the epoch satisfies every enabled criterion."""
    cfg = cfg or CandidateConfig()
    accepted = np.zeros(len(Inclinometer), dtype=bool)
    accepted[[int(s) for s in cfg.inclinometer_accept]] = True
    mask = accepted[series.inclinometer]
    if cfg.require_zero_triaxial:
        mask &= ~series.counts[:, :3].any(axis=1)
    if cfg.require_zero_steps:
        mask &= series.counts[:, 3] == 0
    return mask


def _runs(mask: np.ndarray) -> list[tuple[bool, int, int]]:
    """Maximal constant runs as (value, start, stop) with stop exclusive."""
    n = len(mask)
    if n == 0:
        return []
    edges = np.flatnonzero(np.diff(mask.astype(np.int8))) + 1
    starts = np.concatenate(([0], edges))
    stops = np.concatenate((edges, [n]))
    return [(bool(mask[a]), int(a), int(b)) for a, b in zip(starts, stops)]


def detect_sleep_periods(mask: np.ndarray, rules: SleepRules | None = None) -> list[SleepPeriod]:
    """Apply the onset/awakening run rules to a candidate mask.

    Returns disjoint, ordered periods from one forward scan over the runs
    of the mask.  A candidate run at least ``onset_run`` long opens a
    period when none is open; any candidate run extends an open one.  A
    non-candidate run at least ``awakening_gap`` long closes the open
    period at its last candidate epoch.  A period still open when the runs
    end is closed there and flagged truncated.
    """
    rules = rules or SleepRules()
    periods: list[SleepPeriod] = []
    onset = last_candidate = None
    for value, start, stop in _runs(np.asarray(mask, dtype=bool)):
        if value:
            if onset is None and stop - start >= rules.onset_run:
                onset = start
            last_candidate = stop - 1
        elif onset is not None and stop - start >= rules.awakening_gap:
            periods.append(SleepPeriod(onset, last_candidate))
            onset = None
    if onset is not None:
        periods.append(SleepPeriod(onset, last_candidate, truncated=True))
    if rules.min_sleep_min > 0:
        periods = [p for p in periods if p.duration_epochs >= rules.min_sleep_min]
    return periods


def compute_waso(
    mask: np.ndarray, period: SleepPeriod, rules: SleepRules | None = None
) -> int:
    """Wakefulness inside the sleep period, in epochs.

    Sums maximal non-candidate runs strictly between onset and awakening
    whose length exceeds ``waso_bout_min``.
    """
    rules = rules or SleepRules()
    mask = np.asarray(mask, dtype=bool)
    if not (0 <= period.onset_index <= period.awakening_index < len(mask)):
        raise ValueError("period out of mask bounds")
    interior = mask[period.onset_index : period.awakening_index + 1]
    total = 0
    for value, start, stop in _runs(interior):
        if not value and stop - start > rules.waso_bout_min:
            total += stop - start
    return total


def compute_latency(
    intensity: list[IntensityLevel] | np.ndarray, period: SleepPeriod
) -> tuple[int, int]:
    """Sleep latency in epochs, plus where the preceding sedentary run starts.

    The latency run is the maximal block of sedentary-labeled epochs ending
    at onset-1; if the epoch before onset is not sedentary (or onset is the
    first epoch), latency is zero and the run start equals the onset.
    """
    onset = period.onset_index
    start = onset
    sedentary = int(IntensityLevel.SEDENTARY)  # a numpy label compares slowly with an IntEnum
    while start > 0 and intensity[start - 1] == sedentary:
        start -= 1
    return onset - start, start


def compute_metrics(
    mask: np.ndarray,
    intensity: list[IntensityLevel] | np.ndarray,
    period: SleepPeriod,
    rules: SleepRules | None = None,
    epoch_minutes: float = 1.0,
) -> SleepMetrics:
    """All sleep quantities for one detected period.

    Duration counts epochs inclusively ([onset, awakening] spans
    awakening - onset + 1 epochs).  TST = duration - WASO - latency is
    floored at zero (flagged) when interior wakefulness plus latency
    exceed the duration; efficiency = TST / TMB is then zero as well.
    """
    rules = rules or SleepRules()
    duration = period.duration_epochs
    waso = compute_waso(mask, period, rules)
    latency, sedentary_start = compute_latency(intensity, period)
    tmb = duration + latency
    tst = duration - waso - latency
    floored = tst < 0
    if floored:
        tst = 0
    return SleepMetrics(
        duration_min=duration * epoch_minutes,
        waso_min=waso * epoch_minutes,
        latency_min=latency * epoch_minutes,
        total_minutes_in_bed=tmb * epoch_minutes,
        total_sleep_time_min=tst * epoch_minutes,
        efficiency=tst / tmb,
        preceding_sedentary_start_index=sedentary_start,
        tst_floored=floored,
    )


def sleep_report(
    series: EpochSeries,
    periods: list[SleepPeriod],
    metrics: list[SleepMetrics],
) -> list[dict]:
    """JSON-ready rows, one per detected period, timestamps in ISO-8601.

    Each timestamp keeps the UTC offset its row was written in.
    """
    rows = []
    for p, m in zip(periods, metrics):
        rows.append(
            {
                "onset": series.timestamp(p.onset_index).isoformat(),
                "awakening": series.timestamp(p.awakening_index).isoformat(),
                "onset_index": p.onset_index,
                "awakening_index": p.awakening_index,
                "duration_min": m.duration_min,
                "waso_min": m.waso_min,
                "latency_min": m.latency_min,
                "tmb_min": m.total_minutes_in_bed,
                "tst_min": m.total_sleep_time_min,
                "efficiency": m.efficiency,
                "truncated": p.truncated,
            }
        )
    return rows
