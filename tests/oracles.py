"""Independent reference implementations used as test oracles.

Everything here is written in the most literal form possible (plain
loops, window scans) and stays independent of the library code paths it
checks.
"""

from __future__ import annotations

import math

import numpy as np


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
