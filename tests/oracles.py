"""Independent reference implementations used as test oracles.

Everything here is written in the most literal form possible (plain
loops, window scans) and stays independent of the library code paths it
checks.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from rahar.cutpoints import IntensityLevel
from rahar.models.boosting import _EPS, Stump
from rahar.models.forest import RandomForestModel, _Node
from rahar.errors import (
    DuplicateTimestamp,
    GapDetected,
    MalformedRow,
    MisalignedTimestamp,
    NegativeCount,
    NonMonotone,
    ParseError,
    UnknownInclinometer,
    ZeroFactor,
)
from rahar.ingest import (
    CSV_HEADER,
    MAX_COUNT,
    EpochSeries,
    Gap,
    Inclinometer,
)

_UTC_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)


def energy_triple_sum(X, Y, alpha: float) -> tuple[float, float]:
    """Direct triple-sum evaluation of the energy divergence formula."""
    X = [np.atleast_1d(np.asarray(x, dtype=float)) for x in X]
    Y = [np.atleast_1d(np.asarray(y, dtype=float)) for y in Y]
    n, m = len(X), len(Y)
    cross = 0.0
    for xi in X:
        for yj in Y:
            cross += float(np.sqrt(((xi - yj) ** 2).sum())) ** alpha
    within_x = 0.0
    for i in range(n):
        for k in range(i + 1, n):
            within_x += float(np.sqrt(((X[i] - X[k]) ** 2).sum())) ** alpha
    within_y = 0.0
    for j in range(m):
        for k in range(j + 1, m):
            within_y += float(np.sqrt(((Y[j] - Y[k]) ** 2).sum())) ** alpha
    e_hat = (
        2.0 / (m * n) * cross
        - within_x / (n * (n - 1) / 2.0)
        - within_y / (m * (m - 1) / 2.0)
    )
    q_hat = (m * n / (m + n)) * e_hat
    return e_hat, q_hat


def exhaustive_best_split(span, min_segment: int, alpha: float) -> tuple[int, float]:
    """Try every admissible split via the triple-sum oracle; first max wins."""
    span = np.asarray(span, dtype=float)
    length = span.shape[0]
    best_t, best_q = None, -np.inf
    for t in range(min_segment, length - min_segment + 1):
        _, q = energy_triple_sum(span[:t], span[t:], alpha)
        if q > best_q:
            best_q, best_t = q, t
    return best_t, best_q


def euclidean_distance_loop(obs) -> np.ndarray:
    """Pairwise Euclidean distances, each summed over axes in order."""
    obs = np.asarray(obs, dtype=float)
    n = obs.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            total = 0.0
            for a, b in zip(obs[i], obs[j]):
                diff = float(a) - float(b)
                total += diff * diff
            out[i, j] = math.sqrt(total)
    return out


def single_order_best_split(dist, order, min_segment: int):
    """Best split (t, Q) of one ordering of a segment, and its pair-prefix
    increments, by the one-ordering-at-a-time formula: a column cumulative
    sum of the row-gathered distance matrix, read at (s-1, order[s]).

    Returns (t, q, new_pair) where new_pair[s] = sum over i < s of
    dist[order[i], order[s]]; ties go to the smallest split index.
    """
    dist = np.asarray(dist, dtype=float)
    order = np.asarray(order)
    length = dist.shape[0]
    prefix = np.cumsum(dist[order], axis=0)
    new_pair = np.empty(length)
    new_pair[0] = 0.0
    new_pair[1:] = prefix[np.arange(length - 1), order[1:]]
    left_within = np.empty(length + 1)
    left_within[0] = 0.0
    np.cumsum(new_pair, out=left_within[1:])
    row_cum = np.empty(length + 1)
    row_cum[0] = 0.0
    np.cumsum(dist.sum(axis=1)[order], out=row_cum[1:])
    total_within = left_within[length]
    t = np.arange(min_segment, length - min_segment + 1)
    n_left = t.astype(float)
    n_right = (length - t).astype(float)
    lw = left_within[t]
    cross = row_cum[t] - 2.0 * lw
    rw = total_within - lw - cross
    e_hat = (
        2.0 * cross / (n_left * n_right)
        - lw / (n_left * (n_left - 1.0) / 2.0)
        - rw / (n_right * (n_right - 1.0) / 2.0)
    )
    q_hat = (n_left * n_right / (n_left + n_right)) * e_hat
    k = int(np.argmax(q_hat))
    return int(t[k]), float(q_hat[k]), new_pair


def full_width_pair_sums(dist) -> tuple:
    """``(row_totals, left_within)`` of a float64 distance matrix: each row's
    sum, and at s the pair sum of the first s + 1 observations, each pair
    increment read from one column-wise cumulative sum over the full width."""
    dist = np.asarray(dist, dtype=float)
    length = dist.shape[0]
    prefix = np.cumsum(dist, axis=0)
    new_pair = np.zeros(length)
    new_pair[1:] = prefix[np.arange(length - 1), np.arange(1, length)]
    return dist.sum(axis=1), np.cumsum(new_pair)


def ref_permutation_rng(master_seed: int, iteration: int, r: int) -> np.random.Generator:
    """numpy's own generator for permutation r of change-point test ``iteration``."""
    seq = np.random.SeedSequence([master_seed, iteration, r])
    return np.random.Generator(np.random.PCG64(seq))


def window_sleep_periods(mask, onset_run: int, awakening_gap: int):
    """Window-based sleep-period reference.

    Onset candidates are starts of maximal candidate runs at least
    onset_run long; awakening candidates are candidate epochs followed by
    at least awakening_gap non-candidates.  Periods pair each onset with
    the first awakening candidate at or after it; with none left the
    period is truncated and closes at the last candidate epoch.
    Returns (onset, awakening, truncated) triples.
    """
    mask = [bool(v) for v in mask]
    n = len(mask)
    onsets = [
        i
        for i in range(n)
        if (i == 0 or not mask[i - 1])
        and i + onset_run <= n
        and all(mask[i : i + onset_run])
    ]
    wakes = [
        i
        for i in range(n)
        if mask[i]
        and i + 1 + awakening_gap <= n
        and not any(mask[i + 1 : i + 1 + awakening_gap])
    ]
    periods = []
    pos = 0
    for onset in onsets:
        if onset < pos:
            continue
        later = [w for w in wakes if w >= onset]
        if later:
            awakening = later[0]
            periods.append((onset, awakening, False))
            pos = awakening + 1
        else:
            last_candidate = max(i for i in range(onset, n) if mask[i])
            periods.append((onset, last_candidate, True))
            break
    return periods


def window_sleep_periods_fast(mask, onset_run: int, awakening_gap: int):
    """Same window formulation as :func:`window_sleep_periods`, with the
    all-true / all-false window checks vectorized through prefix sums so
    it scales to thousands of long masks."""
    mask = np.asarray(mask, dtype=bool)
    n = len(mask)
    csum = np.concatenate(([0], np.cumsum(mask)))
    idx = np.arange(n)
    run_ok = idx + onset_run <= n
    full_run = np.zeros(n, dtype=bool)
    full_run[run_ok] = (csum[idx[run_ok] + onset_run] - csum[idx[run_ok]]) == onset_run
    at_run_start = np.concatenate(([True], ~mask[:-1]))
    onsets = np.flatnonzero(full_run & at_run_start)
    gap_ok = idx + 1 + awakening_gap <= n
    empty_gap = np.zeros(n, dtype=bool)
    empty_gap[gap_ok] = (csum[idx[gap_ok] + 1 + awakening_gap] - csum[idx[gap_ok] + 1]) == 0
    wakes = np.flatnonzero(mask & empty_gap)

    periods = []
    pos = 0
    for onset in onsets:
        if onset < pos:
            continue
        later = wakes[wakes >= onset]
        if len(later):
            awakening = int(later[0])
            periods.append((int(onset), awakening, False))
            pos = awakening + 1
        else:
            last_candidate = int(np.flatnonzero(mask[onset:])[-1]) + int(onset)
            periods.append((int(onset), last_candidate, True))
            break
    return periods


def brute_waso(mask, onset: int, awakening: int, bout_min: int) -> int:
    """Epoch-by-epoch WASO scan: interior non-candidate bouts longer than bout_min."""
    total = 0
    i = onset + 1
    while i < awakening:
        if not mask[i]:
            j = i
            while j < awakening and not mask[j]:
                j += 1
            if j - i > bout_min:
                total += j - i
            i = j
        else:
            i += 1
    return total


def pair_count_auc(scores, y) -> float:
    """AUC as P(score+ > score-) + 0.5 * P(tie) over all +/- pairs."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# --- object-per-epoch reference for the columnar ingest, cut points and mask --
#
# The series representation rahar used before its columns: a tuple of
# frozen Epoch rows, each with its own datetime.  The functions below are
# that version's parse/validate/fill/aggregate/classify/mask, kept as the
# reference the columnar code is compared with.


@dataclass(frozen=True)
class Epoch:
    """One epoch as a row object."""

    timestamp: datetime
    axis1: int
    axis2: int
    axis3: int
    steps: int
    inclinometer: Inclinometer

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.axis1, self.axis2, self.axis3)


@dataclass(frozen=True)
class ObjectSeries:
    epochs: tuple
    epoch_length: timedelta = timedelta(seconds=60)

    def __len__(self) -> int:
        return len(self.epochs)

    def __getitem__(self, i: int) -> Epoch:
        return self.epochs[i]

    @property
    def epoch_minutes(self) -> float:
        return self.epoch_length.total_seconds() / 60.0


def epoch_at(series: EpochSeries, i: int) -> Epoch:
    """Epoch ``i`` of a columnar series as an Epoch row."""
    axis1, axis2, axis3, steps = series.counts[i].tolist()
    return Epoch(
        series.timestamp(i), axis1, axis2, axis3, steps, Inclinometer(int(series.inclinometer[i]))
    )


def epochs_of(series: EpochSeries) -> tuple:
    """Every epoch of a columnar series as an Epoch row."""
    return tuple(epoch_at(series, i) for i in range(len(series)))


def series_of(epochs, epoch_length: timedelta = timedelta(seconds=60)) -> EpochSeries:
    """A columnar series holding the given Epoch rows, offsets included."""
    return EpochSeries(
        [(e.timestamp - _UTC_EPOCH) // _US for e in epochs],
        [e.timestamp.utcoffset() // _US for e in epochs],
        [[e.axis1, e.axis2, e.axis3, e.steps] for e in epochs],
        [int(e.inclinometer) for e in epochs],
        epoch_length,
    )


# The documented timestamp forms: date, "T" or a space, time, an optional fraction of
# 1 to 6 digits, and "Z" or a signed offset; re.ASCII keeps \d to the digits 0-9.
REF_TIMESTAMP = re.compile(
    r"(\d{4})-(\d\d)-(\d\d)[T ](\d\d):(\d\d):(\d\d)(?:\.(\d{1,6}))?(?:(Z)|([+-])(\d\d):(\d\d))?",
    re.ASCII,
)
DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]


def ref_parse_timestamp(token: str, line_number: int) -> datetime:
    """A timestamp cell, padding stripped, by the regular expression and field ranges alone."""
    match = REF_TIMESTAMP.fullmatch(token)
    if match is None:
        raise MalformedRow(line_number, f"bad timestamp {token!r}")
    year, month, day, hour, minute, second = (int(g) for g in match.groups()[:6])
    fraction, zulu, sign, offset_hour, offset_minute = match.groups()[6:]
    if zulu is None and sign is None:
        raise MalformedRow(line_number, f"timestamp {token!r} has no UTC offset")
    offset_hour, offset_minute = (0, 0) if zulu else (int(offset_hour), int(offset_minute))
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    in_range = (
        year >= 1
        and 1 <= month <= 12
        and 1 <= day <= DAYS_IN_MONTH[month - 1] + (month == 2 and leap)
        and hour <= 23 and minute <= 59 and second <= 59
        and offset_hour <= 23 and offset_minute <= 59
    )
    if not in_range:
        raise MalformedRow(line_number, f"bad timestamp {token!r}")
    offset = (offset_hour * 60 + offset_minute) * (-1 if sign == "-" else 1)
    microsecond = int((fraction or "0").ljust(6, "0"))
    return datetime(year, month, day, hour, minute, second, microsecond,
                    timezone(timedelta(minutes=offset)))


def ref_parse_count(token: str, name: str, line_number: int) -> int:
    # ASCII digits, with a "-" only before a non-zero value
    try:
        if not re.fullmatch(r"-?[0-9]+", token) or re.fullmatch(r"-0+", token):
            raise ValueError
        value = int(token)
    except ValueError:
        raise MalformedRow(line_number, f"{name} {token!r} is not an integer")
    if value < 0:
        raise NegativeCount(line_number, name, value)
    if value > MAX_COUNT:
        raise MalformedRow(line_number, f"{name} {value} exceeds the ceiling of {MAX_COUNT}")
    return value


# A cell or header field is padded with ASCII whitespace only: a no-break
# (U+00A0) or an ideographic (U+3000) space stays part of the token and makes
# it invalid.
ASCII_PADDING = " \t\n\r\x0b\x0c"


def ref_parse(text: str, epoch_length: timedelta = timedelta(seconds=60)) -> ObjectSeries:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: missing header")
    if [h.strip(ASCII_PADDING) for h in header] != CSV_HEADER:
        raise ParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
    epochs = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise MalformedRow(line_number, f"expected 6 fields, got {len(row)}")
        ts = ref_parse_timestamp(row[0].strip(ASCII_PADDING), line_number)
        axis1 = ref_parse_count(row[1].strip(ASCII_PADDING), "axis1", line_number)
        axis2 = ref_parse_count(row[2].strip(ASCII_PADDING), "axis2", line_number)
        axis3 = ref_parse_count(row[3].strip(ASCII_PADDING), "axis3", line_number)
        steps = ref_parse_count(row[4].strip(ASCII_PADDING), "steps", line_number)
        token = row[5].strip(ASCII_PADDING)
        try:
            incl = Inclinometer[token.upper()]
        except KeyError:
            raise UnknownInclinometer(line_number, token)
        epochs.append(Epoch(ts, axis1, axis2, axis3, steps, incl))
    return ObjectSeries(tuple(epochs), epoch_length)


def ref_serialize(series: ObjectSeries) -> str:
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for e in series.epochs:
        writer.writerow(
            [e.timestamp.isoformat(), e.axis1, e.axis2, e.axis3, e.steps, e.inclinometer.token]
        )
    return stream.getvalue()


def ref_find_gaps(series: ObjectSeries) -> list[Gap]:
    gaps = []
    stride = series.epoch_length
    for i in range(1, len(series)):
        prev, cur = series.epochs[i - 1].timestamp, series.epochs[i].timestamp
        delta = cur - prev
        if delta == stride:
            continue
        if delta <= timedelta(0):
            if cur == prev:
                raise DuplicateTimestamp(f"duplicate timestamp {cur.isoformat()} at row {i}")
            raise NonMonotone(f"timestamp {cur.isoformat()} at row {i} goes backwards")
        missing, remainder = divmod(delta, stride)
        if remainder != timedelta(0):
            raise MisalignedTimestamp(
                f"timestamp {cur.isoformat()} at row {i} is off the epoch grid"
            )
        gaps.append(Gap(start=prev + stride, length=int(missing) - 1, after_index=i - 1))
    return gaps


def ref_validate(series: ObjectSeries) -> ObjectSeries:
    if series.epoch_length.total_seconds() % 60 == 0:
        for i, e in enumerate(series.epochs):
            if e.timestamp.second != 0 or e.timestamp.microsecond != 0:
                raise MisalignedTimestamp(
                    f"timestamp {e.timestamp.isoformat()} at row {i} is not minute-aligned"
                )
    gaps = ref_find_gaps(series)
    if gaps:
        raise GapDetected(gaps)
    return series


def ref_fill_gaps(series: ObjectSeries) -> tuple[ObjectSeries, int]:
    gaps = ref_find_gaps(series)
    if not gaps:
        return series, 0
    out = []
    by_start = {g.after_index: g for g in gaps}
    for i, e in enumerate(series.epochs):
        out.append(e)
        g = by_start.get(i)
        if g is not None:
            for k in range(g.length):
                out.append(
                    Epoch(g.start + k * series.epoch_length, 0, 0, 0, 0, Inclinometer.OFF)
                )
    return replace(series, epochs=tuple(out)), sum(g.length for g in gaps)


def ref_aggregate(series: ObjectSeries, factor: int) -> tuple[ObjectSeries, int]:
    if factor < 1:
        raise ZeroFactor(f"aggregation factor must be >= 1, got {factor}")
    if factor == 1:
        return series, 0
    n_blocks = len(series) // factor
    blocks = []
    for b in range(n_blocks):
        members = series.epochs[b * factor : (b + 1) * factor]
        tally = [0, 0, 0, 0]
        for m in members:
            tally[int(m.inclinometer)] += 1
        blocks.append(
            Epoch(
                timestamp=members[0].timestamp,
                axis1=sum(m.axis1 for m in members),
                axis2=sum(m.axis2 for m in members),
                axis3=sum(m.axis3 for m in members),
                steps=sum(m.steps for m in members),
                # ties break toward the lower enum value
                inclinometer=Inclinometer(tally.index(max(tally))),
            )
        )
    out = ObjectSeries(tuple(blocks), series.epoch_length * factor)
    return out, len(series) - n_blocks * factor


def level_for(band, counts_per_min: float) -> IntensityLevel:
    """First level whose exclusive upper bound lies above the value."""
    for k, upper in enumerate(band.bounds):
        if counts_per_min < upper:
            return IntensityLevel(k)
    raise AssertionError("age band does not cover +inf")


def signal_counts(epoch: Epoch, signal: str) -> float:
    if signal == "axis1":
        return float(epoch.axis1)
    if signal == "vm3":
        return math.sqrt(epoch.axis1**2 + epoch.axis2**2 + epoch.axis3**2)
    raise ValueError(f"unknown signal {signal!r}, expected 'axis1' or 'vm3'")


def ref_classify_epoch(
    epoch: Epoch, scale, age_years: int, epoch_minutes: float = 1.0, signal: str = "axis1"
) -> IntensityLevel:
    """Intensity level of one epoch from its counts-per-minute."""
    if epoch_minutes <= 0:
        raise ValueError(f"epoch_minutes must be positive, got {epoch_minutes}")
    cpm = signal_counts(epoch, signal) / epoch_minutes
    return level_for(scale.band_for_age(age_years), cpm)


def ref_classify(series, scale, age_years: int, signal: str = "axis1") -> list[IntensityLevel]:
    band = scale.band_for_age(age_years)
    return [level_for(band, signal_counts(e, signal) / series.epoch_minutes) for e in series.epochs]


def ref_candidate_mask(series, cfg) -> np.ndarray:
    mask = np.ones(len(series), dtype=bool)
    for i, e in enumerate(series.epochs):
        if cfg.require_zero_triaxial and (e.axis1 or e.axis2 or e.axis3):
            mask[i] = False
        elif cfg.require_zero_steps and e.steps:
            mask[i] = False
        elif e.inclinometer not in cfg.inclinometer_accept:
            mask[i] = False
    return mask


# --- model search loops ---------------------------------------------------------


def ref_sequential_argmin(values, tol: float) -> int:
    """The literal scan that ``models.search.sequential_argmin`` vectorizes."""
    best, kept = np.inf, -1
    for i, v in enumerate(values):
        if v < best - tol:
            best, kept = v, i
    return kept


def _gini(pos: float, total: float) -> float:
    if total == 0:
        return 0.0
    p = pos / total
    return 2.0 * p * (1.0 - p)


def midpoint(lower: float, upper: float) -> float:
    return (lower + upper) / 2.0


def ref_best_node_split(X, y, rows, features, min_leaf, cut=midpoint):
    """(feature, threshold) minimizing weighted child Gini; None when unsplittable.
    The threshold is ``cut`` of the two values on either side of the best cut."""
    best = None
    best_impurity = np.inf
    n = len(rows)
    for feature in features:
        col = X[rows, feature]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_y = y[rows][order]
        left_pos = np.cumsum(sorted_y)
        total_pos = left_pos[-1]
        for i in range(min_leaf - 1, n - min_leaf):
            if sorted_col[i] == sorted_col[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            impurity = (
                n_left * _gini(left_pos[i], n_left)
                + n_right * _gini(total_pos - left_pos[i], n_right)
            ) / n
            if impurity < best_impurity - 1e-15:
                best_impurity = impurity
                best = (feature, cut(sorted_col[i], sorted_col[i + 1]))
    return best


def forest_cut(lower: float, upper: float) -> float:
    """The midpoint, or ``lower`` where the midpoint rounds up to ``upper``."""
    return midpoint(lower, upper) if midpoint(lower, upper) < upper else lower


def ref_train_random_forest(X, y, config) -> RandomForestModel:
    """The forest grown on each bootstrap as a list of row indices, repeats and all,
    searched with :func:`ref_best_node_split`; the tree nodes draw from the tree's
    stream in the order they are grown, left before right."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    mtry = config.mtry if config.mtry is not None else math.ceil(math.sqrt(d))
    trees = []
    for tree_index in range(config.trees):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([config.seed, tree_index]))
        )
        bootstrap = rng.integers(0, n, size=n)
        trees.append(_ref_grow(X, y, bootstrap, rng, mtry, config.min_leaf))
    return RandomForestModel(trees=trees, n_features=d, config=config)


def _ref_grow(X, y, rows, rng, mtry: int, min_leaf: int) -> _Node:
    pos = int(y[rows].sum())
    n = len(rows)
    if pos == 0 or pos == n or n < 2 * min_leaf:
        return _Node(leaf_value=pos / n)
    d = X.shape[1]
    sampled = np.sort(rng.choice(d, size=min(mtry, d), replace=False))
    split = ref_best_node_split(X, y, rows, sampled, min_leaf, forest_cut)
    if split is None and len(sampled) < d:  # the sampled features are constant: try all
        split = ref_best_node_split(X, y, rows, range(d), min_leaf, forest_cut)
    if split is None:
        return _Node(leaf_value=pos / n)
    feature, threshold = split
    go_left = X[rows, feature] <= threshold
    left = _ref_grow(X, y, rows[go_left], rng, mtry, min_leaf)
    right = _ref_grow(X, y, rows[~go_left], rng, mtry, min_leaf)
    return _Node(feature=int(feature), threshold=float(threshold), left=left, right=right)


def ref_best_stump(X: np.ndarray, y_signed: np.ndarray, weights: np.ndarray):
    """Exhaustive weighted-error-minimizing stump; None if no usable threshold."""
    n, d = X.shape
    best = None
    best_err = np.inf
    for feature in range(d):
        col = X[:, feature]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        # signed weights: positive where the label is +1
        wy = (weights * y_signed)[order]
        # err(threshold, polarity=+1) = sum of weights of (+1 left) and (-1 right)
        # computed from prefix sums of signed weights
        left_pos = np.cumsum(np.where(wy > 0, wy, 0.0))
        left_neg = np.cumsum(np.where(wy < 0, -wy, 0.0))
        total_pos = left_pos[-1]
        total_neg = left_neg[-1]
        distinct = sorted_col[:-1] < sorted_col[1:]
        for i in np.flatnonzero(distinct):
            threshold = (sorted_col[i] + sorted_col[i + 1]) / 2.0
            # polarity +1: predict -1 for x <= threshold, +1 above
            err_pos = left_pos[i] + (total_neg - left_neg[i])
            err_neg = left_neg[i] + (total_pos - left_pos[i])
            for polarity, err in ((1, err_pos), (-1, err_neg)):
                if err < best_err - _EPS:
                    best_err = err
                    best = Stump(feature, float(threshold), polarity)
    if best is None:
        return None, 0.5
    return best, float(best_err)


def ref_predict_one(node, row: np.ndarray) -> float:
    """The leaf value one row reaches in a forest tree (a ``forest._Node``)."""
    while node.leaf_value is None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.leaf_value
