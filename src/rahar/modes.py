"""Activity modes: change-point intervals labeled by their majority intensity.

Minute-level cut-point labels are noisy; the change-point intervals give
natural smoothing windows.  Each interval takes the statistical mode of
the per-epoch intensity labels inside it, with ties broken toward the
lower intensity so activity credit is never inflated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .changepoint import ChangePointSet
from .cutpoints import IntensityLevel


@dataclass(frozen=True)
class ActivityMode:
    """A half-open interval [start, end) with its majority intensity level."""

    start_index: int
    end_index: int
    level: IntensityLevel
    epoch_histogram: tuple[int, int, int, int]

    def __post_init__(self):
        if self.start_index >= self.end_index:
            raise ValueError("mode interval must be non-empty")

    @property
    def length(self) -> int:
        return self.end_index - self.start_index


TIE_BREAKS = ("lower", "higher")  # where a mode histogram tie goes


def label_intervals(
    intensity: list[IntensityLevel] | np.ndarray,
    change_points: ChangePointSet,
    tie_break: str = "lower",
) -> list[ActivityMode]:
    """Partition the span at the change points and label each interval.

    ``intensity`` is the per-epoch label sequence of the awake span; change
    point indices are offsets within that span, each strictly inside (0, n).
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    levels = np.asarray(intensity, dtype=np.int64)
    n = len(levels)
    if n == 0:
        return []
    cuts = [cp.index for cp in change_points]
    if any(not 0 < c < n for c in cuts):
        raise ValueError("change point indices must fall strictly inside the span")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("change point indices must be strictly increasing")

    bounds = [0, *cuts, n]
    modes: list[ActivityMode] = []
    for a, b in zip(bounds, bounds[1:]):
        hist = np.bincount(levels[a:b], minlength=4)
        if tie_break == "lower":
            level = IntensityLevel(int(np.argmax(hist)))
        else:
            level = IntensityLevel(3 - int(np.argmax(hist[::-1])))
        modes.append(ActivityMode(a, b, level, tuple(int(c) for c in hist)))
    return modes


def mode_report_rows(segment_id: str, modes: list[ActivityMode]) -> list[list]:
    """Rows for the mode report CSV: segment id, interval bounds, mode token."""
    return [[segment_id, m.start_index, m.end_index, m.level.token] for m in modes]
