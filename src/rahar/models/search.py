"""The tie rule and the threshold shared by the exhaustive split searches.

The random forest's Gini split search and AdaBoost's stump search both
scan their candidates in a fixed order and keep one only when it beats
the best so far by more than a tolerance, so among near-ties the earliest
candidate wins.  :func:`sequential_argmin` applies that rule to a whole
vector of candidate scores, and :func:`cut_threshold` places the winning
cut between its two values.
"""

from __future__ import annotations

import numpy as np


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
