"""Seeded stratified k-fold cross-validation.

Folds are assigned per class: each class's indices are shuffled by the
fold RNG and dealt to the currently least-filled folds, so fold sizes
differ by at most one and each class's per-fold counts differ by at most
one.  The pooled report concatenates every fold's held-out scores, so
pooled confusion counts are the sum of the fold confusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import TooFewPerClass
from .boosting import AdaBoostConfig, train_adaboost
from .evaluation import EvalReport, evaluate
from .forest import ForestConfig, train_random_forest
from .logreg import LogRegConfig, train_logreg

MODEL_KINDS = ("logreg", "adaboost", "rf")


def make_config(kind: str, seed: int = 0):
    if kind == "logreg":
        return LogRegConfig()
    if kind == "adaboost":
        return AdaBoostConfig(seed=seed)
    if kind == "rf":
        return ForestConfig(seed=seed)
    raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")


def train(kind: str, X, y, config=None, seed: int = 0):
    config = config if config is not None else make_config(kind, seed=seed)
    if kind == "logreg":
        return train_logreg(X, y, config)
    if kind == "adaboost":
        return train_adaboost(X, y, config)
    if kind == "rf":
        return train_random_forest(X, y, config)
    raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")


def stratified_folds(y, folds: int, seed: int = 0) -> np.ndarray:
    """Fold id per row; deterministic for a given (y, folds, seed)."""
    y = np.asarray(y, dtype=np.int64)
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    assignment = np.empty(len(y), dtype=np.int64)
    fill = np.zeros(folds, dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if len(idx) < folds:
            raise TooFewPerClass(
                f"class {cls} has {len(idx)} members, fewer than {folds} folds"
            )
        idx = rng.permutation(idx)
        base, rem = divmod(len(idx), folds)
        # least-filled folds (ties by fold index) take the remainder
        order = np.argsort(fill, kind="stable")
        take = np.full(folds, base, dtype=np.int64)
        take[order[:rem]] += 1
        pos = 0
        for fold in range(folds):
            assignment[idx[pos : pos + take[fold]]] = fold
            pos += take[fold]
        fill += take
    return assignment


def _fold_scores(kind: str, X, y, config, seed: int, held) -> np.ndarray:
    """Train on the rows outside ``held`` and score the rows in it."""
    model = train(kind, X[~held], y[~held], config=config, seed=seed)
    return model.predict_scores(X[held])


@dataclass
class CVResult:
    fold_reports: list[EvalReport]
    pooled: EvalReport
    pooled_scores: np.ndarray


def cross_validate(
    X,
    y,
    kind: str,
    config=None,
    folds: int = 5,
    seed: int = 0,
    class_threshold: float = 0.5,
    map=map,
) -> CVResult:
    """Train on k-1 folds, score the held-out fold, pool all held-out scores.
    ``map`` trains and scores the folds, each independent of the others."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    assignment = stratified_folds(y, folds, seed)
    held_out = [assignment == fold for fold in range(folds)]
    pooled_scores = np.empty(len(y), dtype=float)
    fold_reports = []
    fold_scores = map(partial(_fold_scores, kind, X, y, config, seed), held_out)
    for held, scores in zip(held_out, fold_scores):
        pooled_scores[held] = scores
        fold_reports.append(evaluate(scores, y[held], class_threshold))
    pooled = evaluate(pooled_scores, y, class_threshold)
    return CVResult(
        fold_reports=fold_reports,
        pooled=pooled,
        pooled_scores=pooled_scores,
    )
