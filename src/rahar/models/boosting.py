"""Discrete AdaBoost over depth-1 threshold stumps.

Each round exhaustively searches all features and all midpoint thresholds
for the stump minimizing weighted error, receives the classic round weight
0.5*ln((1-err)/err), and reweights the examples.  Training stops early at
a perfect stump (after committing it) or when no stump beats chance
(before committing).  Scores map the normalized ensemble margin into
[0, 1].  The search is fully deterministic: ties prefer the earlier
feature, then the smaller threshold, then positive polarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .search import cut_threshold, scoring_input, sequential_argmin, training_input

_EPS = 1e-12


@dataclass(frozen=True)
class AdaBoostConfig:
    rounds: int = 50
    seed: int = 0  # kept for interface symmetry; the stump search is deterministic


@dataclass(frozen=True)
class Stump:
    """Predicts +1 when polarity*(x[feature] - threshold) > 0, else -1."""

    feature: int
    threshold: float
    polarity: int  # +1 or -1

    def predict(self, X: np.ndarray) -> np.ndarray:
        raw = np.where(X[:, self.feature] > self.threshold, 1.0, -1.0)
        return self.polarity * raw


@dataclass
class AdaBoostModel:
    stumps: list[Stump]
    round_weights: list[float]
    n_features: int
    config: AdaBoostConfig

    def margin(self, X) -> np.ndarray:
        X = scoring_input(X, self.n_features)
        if not self.stumps:
            return np.zeros(X.shape[0])
        total = np.zeros(X.shape[0])
        for stump, w in zip(self.stumps, self.round_weights):
            total += w * stump.predict(X)
        return total / sum(self.round_weights)

    def predict_scores(self, X) -> np.ndarray:
        return (self.margin(X) + 1.0) / 2.0

    def staged_training_errors(self, X, y) -> list[float]:
        """0-1 training error of the ensemble truncated after each round.

        Not monotone in general: the zero-one error of the stagewise
        ensemble can tick upward between rounds even though the
        exponential objective (see :meth:`staged_exponential_losses`)
        strictly decreases.
        """
        X = scoring_input(X, self.n_features)
        y_signed = np.where(np.asarray(y) == 1, 1.0, -1.0)
        total = np.zeros(X.shape[0])
        errors = []
        for stump, w in zip(self.stumps, self.round_weights):
            total += w * stump.predict(X)
            pred = np.where(total >= 0.0, 1.0, -1.0)
            errors.append(float(np.mean(pred != y_signed)))
        return errors

    def staged_exponential_losses(self, X, y) -> list[float]:
        """Mean exp(-y*F_t(x)) after each round: the objective boosting
        minimizes, non-increasing on any dataset (each committed round
        multiplies it by 2*sqrt(err*(1-err)) < 1)."""
        X = scoring_input(X, self.n_features)
        y_signed = np.where(np.asarray(y) == 1, 1.0, -1.0)
        margin = np.zeros(X.shape[0])
        losses = []
        for stump, w in zip(self.stumps, self.round_weights):
            margin += w * stump.predict(X)
            losses.append(float(np.mean(np.exp(-y_signed * margin))))
        return losses


def _best_stump(X: np.ndarray, y_signed: np.ndarray, weights: np.ndarray):
    """Exhaustive weighted-error-minimizing stump; None if no usable threshold."""
    cols = X.T
    order = np.argsort(cols, axis=1, kind="stable")
    sorted_cols = cols[np.arange(len(cols))[:, None], order]
    # signed weights: positive where the label is +1
    wy = (weights * y_signed)[order]
    # err(threshold, polarity=+1) = sum of weights of (+1 left) and (-1 right)
    # computed from prefix sums of signed weights
    left_pos = np.cumsum(np.where(wy > 0, wy, 0.0), axis=1)
    left_neg = np.cumsum(np.where(wy < 0, -wy, 0.0), axis=1)
    # every (feature, cut) between two distinct values, feature-major as searched
    f, i = np.nonzero(sorted_cols[:, :-1] < sorted_cols[:, 1:])
    # polarity +1 predicts -1 for x <= threshold and +1 above; each cut
    # tries +1 then -1, so the two errors interleave in that order
    errors = np.empty((len(f), 2))
    errors[:, 0] = left_pos[f, i] + (left_neg[f, -1] - left_neg[f, i])
    errors[:, 1] = left_neg[f, i] + (left_pos[f, -1] - left_pos[f, i])
    errors = errors.ravel()
    kept = sequential_argmin(errors, _EPS)
    if kept < 0:
        return None, 0.5
    f, i = f[kept // 2], i[kept // 2]
    threshold = cut_threshold(sorted_cols[f, i], sorted_cols[f, i + 1])
    return Stump(int(f), float(threshold), -1 if kept % 2 else 1), float(errors[kept])


def train_adaboost(X, y, config: AdaBoostConfig | None = None) -> AdaBoostModel:
    config = config or AdaBoostConfig()
    X, y = training_input(X, y)
    n = X.shape[0]
    y_signed = np.where(y == 1, 1.0, -1.0)
    weights = np.full(n, 1.0 / n)
    stumps: list[Stump] = []
    round_weights: list[float] = []
    for _ in range(config.rounds):
        stump, err = _best_stump(X, y_signed, weights)
        if stump is None or err >= 0.5:
            break  # nothing beats chance; stop without committing
        round_weight = 0.5 * np.log((1.0 - err + _EPS) / (err + _EPS))
        stumps.append(stump)
        round_weights.append(float(round_weight))
        if err <= _EPS:
            break  # perfect stump committed; later rounds cannot help
        pred = stump.predict(X)
        weights = weights * np.exp(-round_weight * y_signed * pred)
        weights = weights / weights.sum()
    return AdaBoostModel(
        stumps=stumps,
        round_weights=round_weights,
        n_features=X.shape[1],
        config=config,
    )
