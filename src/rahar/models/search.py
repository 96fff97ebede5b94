"""The rules the models share: what input they accept, and how a split search
breaks ties and places its threshold.

Every trainer checks its input with :func:`training_input` and every model
its scoring input with :func:`scoring_input`, so the three models accept and
refuse the same arrays.

The random forest's Gini split search and AdaBoost's stump search both
scan their candidates in a fixed order and keep one only when it beats
the best so far by more than a tolerance, so among near-ties the earliest
candidate wins.  :func:`sequential_argmin` applies that rule to a whole
vector of candidate scores, and :func:`cut_threshold` places the winning
cut between its two values.
"""

from __future__ import annotations

import numpy as np

from ..errors import ClassCollapse, DimensionMismatch


def training_input(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` as float64 and ``y`` as int64, when ``X`` is 2-D and finite and ``y``
    holds one label per row, each 0 or 1, with both classes present."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    if y.shape != X.shape[:1]:
        raise DimensionMismatch(f"expected one label per row of X {X.shape}, got y {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("training labels must be 0 or 1")
    if len(np.unique(y)) < 2:
        raise ClassCollapse("training labels contain a single class")
    return X, y.astype(np.int64)


def scoring_input(X, n_features: int) -> np.ndarray:
    """``X`` as float64, when it is 2-D with ``n_features`` columns."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatch(f"expected {n_features} features, got {X.shape}")
    return X


def sequential_argmin(values: np.ndarray, tol: float) -> int:
    """Index of the value that the scan ``if v < best - tol: best = v`` keeps.

    ``best`` starts at +inf; the result is -1 when no value is kept (all
    NaN or +inf, or empty).  ``tol`` must be non-negative.  Exact for any
    float64 input, NaN and +-inf included.

    Only values below every earlier non-NaN value (strict prefix minima)
    are tested, since no other value can be kept: an earlier value ``u``
    either set ``best`` to ``u`` or left ``u >= fl(best - tol)``, ``best``
    never rises and rounding is monotone, so a kept ``v < fl(best - tol)``
    lies below ``u``.
    """
    prior = np.fmin.accumulate(np.concatenate(([np.inf], values)))[:-1]
    minima = np.flatnonzero(values < prior)
    best, kept = np.inf, -1
    for i, v in zip(minima.tolist(), values[minima]):
        if v < best - tol:
            best, kept = v, i
    return kept


def cut_threshold(lower: float, upper: float) -> float:
    """A threshold ``t`` with ``lower <= t < upper``, for a cut between two values.

    The midpoint, unless it rounds to ``upper`` (two adjacent floats, or a
    sum that overflows): then ``x <= t`` would send ``upper`` to the left
    too, so ``lower`` itself is the threshold.
    """
    mid = (lower + upper) / 2.0
    return mid if mid < upper else lower
