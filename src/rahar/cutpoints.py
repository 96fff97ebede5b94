"""Activity intensity classification by count-per-minute cut points.

Each epoch is assigned one of four intensity levels (sedentary, light,
moderate, vigorous) by comparing its vertical-axis counts per minute
against an age-indexed cut-point scale.  The bundled scale transcribes
the Troiano NHANES thresholds (Troiano et al., Med Sci Sports Exerc 2008):
adults use 100 / 2020 / 5999 counts-per-minute boundaries, youths aged
6-17 use the age-specific moderate and vigorous thresholds from the same
publication.  Custom scales can be loaded from a CSV file with rows
``age_min,age_max,sedentary_max,light_max,moderate_max`` (inclusive
upper bounds in counts/min); ages are ASCII digits and bounds ASCII
numbers without ``_``.

The scale is defined on vertical-axis (axis1) counts.  A vector-magnitude
signal option exists for devices calibrated that way, but the bundled
thresholds were published for axis1.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InvalidScale, ParseError
from .ingest import EpochSeries, is_count, is_plain_number, read_table, vm3

SCALE_HEADER = ["age_min", "age_max", "sedentary_max", "light_max", "moderate_max"]


class IntensityLevel(IntEnum):
    SEDENTARY = 0
    LIGHT = 1
    MODERATE = 2
    VIGOROUS = 3

    @property
    def token(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class AgeBand:
    """Cut points for one age range, as exclusive upper bounds in counts/min.

    ``bounds[k]`` is the smallest count-per-minute value that is *too high*
    for level k; the last entry is +inf so every non-negative value maps to
    exactly one level.
    """

    age_min: int
    age_max: int
    bounds: tuple[float, float, float, float]

    def levels(self, counts_per_min: np.ndarray) -> np.ndarray:
        """uint8 level per value: the number of bounds at or below it."""
        return np.searchsorted(self.bounds, counts_per_min, side="right").astype(np.uint8)

    def level_for(self, counts_per_min: float) -> IntensityLevel:
        return IntensityLevel(int(self.levels(np.array([counts_per_min]))[0]))


@dataclass(frozen=True)
class CutPointScale:
    name: str
    bands: tuple[AgeBand, ...]

    def band_for_age(self, age_years: int) -> AgeBand:
        for band in self.bands:
            if band.age_min <= age_years <= band.age_max:
                return band
        raise InvalidScale(f"scale {self.name!r} has no band for age {age_years}")


def _validate_band(band: AgeBand) -> None:
    b = band.bounds
    if b[0] <= 0:
        raise InvalidScale(f"sedentary bound must be positive, got {b[0]}")
    if not (b[0] < b[1] < b[2] < b[3]):
        raise InvalidScale(f"bounds must be strictly increasing, got {b}")
    if not math.isinf(b[3]):
        raise InvalidScale("last bound must be +inf so bands cover [0, +inf)")


def make_scale(name: str, rows: list[tuple[int, int, float, float, float]]) -> CutPointScale:
    """Build a scale from (age_min, age_max, sedentary_max, light_max, moderate_max) rows.

    The *_max columns are inclusive upper bounds in counts/min; internally
    they become exclusive bounds at max+1 so integer counts land in the
    published bands and fractional counts-per-minute (from aggregated
    epochs) resolve consistently.
    """
    bands = []
    for age_min, age_max, sed_max, light_max, mod_max in rows:
        if age_min > age_max:
            raise InvalidScale(f"age range [{age_min}, {age_max}] is empty")
        bands.append(
            AgeBand(age_min, age_max, (sed_max + 1, light_max + 1, mod_max + 1, math.inf))
        )
    for band in bands:
        _validate_band(band)
    return CutPointScale(name, tuple(bands))


def load_scale_file(path: str | Path, name: str | None = None) -> CutPointScale:
    """Load a cut-point scale from a CSV file (see module docstring for format).

    Every fault in its contents, from the header to a field the csv module
    cannot read, is an :class:`InvalidScale`."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            table = list(read_table(fh, SCALE_HEADER, "scale "))
        except ParseError as exc:
            raise InvalidScale(str(exc)) from None
    rows = []
    for line_number, row in table:
        try:
            rows.append((int(row[0]), int(row[1]), float(row[2]), float(row[3]), float(row[4])))
        except ValueError as exc:
            raise InvalidScale(f"line {line_number}: scale row {row!r}: {exc}") from None
        plain = [is_count(c.strip(string.whitespace)) for c in row[:2]] + [is_plain_number(c) for c in row[2:]]
        if not all(plain):
            bad = row[plain.index(False)]
            raise InvalidScale(
                f"line {line_number}: scale row {row!r}: {bad!r} is not a plain ASCII number"
            )
    if not rows:
        raise InvalidScale("scale file has no bands")
    return make_scale(name or path.stem, rows)


def builtin_troiano_scale() -> CutPointScale:
    """The bundled Troiano (2008) scale: youth bands for ages 6-17, adult 18+."""
    with resources.as_file(resources.files("rahar") / "data" / "troiano_2008.csv") as path:
        return load_scale_file(path, "troiano-2008")


def _signal_counts(series: EpochSeries, signal: str) -> np.ndarray:
    if signal == "axis1":
        return series.counts[:, 0].astype(float)
    if signal == "vm3":
        return vm3(series.counts)
    raise ValueError(f"unknown signal {signal!r}, expected 'axis1' or 'vm3'")


def classify_series(
    series: EpochSeries,
    scale: CutPointScale | None = None,
    age_years: int | None = None,
    signal: str = "axis1",
) -> np.ndarray:
    """Elementwise intensity levels (uint8 :class:`IntensityLevel` codes) for a series.

    Age defaults to the series' subject metadata; the scale defaults to the
    bundled Troiano table.
    """
    scale = scale or builtin_troiano_scale()
    age = age_years if age_years is not None else series.subject.age_years
    band = scale.band_for_age(age)  # resolve once; also fails fast on bad age
    return band.levels(_signal_counts(series, signal) / series.epoch_minutes)
