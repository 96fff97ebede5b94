"""Random forest of Gini-split binary trees.

Trees are grown on bootstrap samples to purity (or until no usable split
remains), with ``mtry`` features drawn per node.  Leaves store their
class-1 fraction; the forest score is the mean leaf value over trees, so
purity-grown trees cast hard 0/1 votes and degenerate trees fall back to
their bootstrap class prior.  All randomness derives from per-tree
streams seeded by (seed, tree index), so a forest is reproducible
regardless of training order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ClassCollapse, DimensionMismatch
from .search import cut_threshold, sequential_argmin


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    mtry: int | None = None  # None -> ceil(sqrt(n_features))
    min_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError(f"trees must be at least 1, got {self.trees}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be at least 1, got {self.min_leaf}")


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    leaf_value: float | None = None  # class-1 fraction when this is a leaf

    def fill_leaf_values(self, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
        """Write into ``out[rows]`` the leaf value each of ``X[rows]`` reaches."""
        if self.leaf_value is not None:
            out[rows] = self.leaf_value
            return
        go_left = X[rows, self.feature] <= self.threshold
        self.left.fill_leaf_values(X, rows[go_left], out)
        self.right.fill_leaf_values(X, rows[~go_left], out)

    def to_dict(self) -> dict:
        if self.leaf_value is not None:
            return {"leaf": self.leaf_value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


@dataclass
class RandomForestModel:
    trees: list[_Node]
    n_features: int
    config: ForestConfig

    kind: str = field(default="random_forest", init=False)

    def predict_scores(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatch(f"expected {self.n_features} features, got {X.shape}")
        scores = np.zeros(X.shape[0])
        rows = np.arange(X.shape[0])
        leaf_values = np.empty(X.shape[0])
        for tree in self.trees:
            tree.fill_leaf_values(X, rows, leaf_values)
            scores += leaf_values
        return scores / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
        }


def _best_node_split(X, y, rows, features, min_leaf):
    """(feature, threshold) minimizing weighted child Gini; None when unsplittable.

    Features are searched in the order given and cuts in ascending order;
    a cut replaces the best one only when it lowers the impurity by more
    than 1e-15, so near-ties go to the earlier feature and smaller cut.
    """
    n = len(rows)
    cols = X[rows[None, :], features[:, None]]
    order = np.argsort(cols, axis=1, kind="stable")
    sorted_cols = cols[np.arange(len(features))[:, None], order]
    left_pos = np.cumsum(y[rows][order], axis=1)
    lo, hi = min_leaf - 1, n - min_leaf
    # every (feature, cut) between two distinct values, feature-major as searched
    f, i = np.nonzero(sorted_cols[:, lo:hi] != sorted_cols[:, lo + 1 : hi + 1])
    i += lo
    n_left = i + 1  # both sides hold at least min_leaf >= 1 rows
    n_right = n - n_left
    pos = left_pos[f, i]
    p_left = pos / n_left
    p_right = (left_pos[f, -1] - pos) / n_right
    impurity = (
        n_left * (2.0 * p_left * (1.0 - p_left)) + n_right * (2.0 * p_right * (1.0 - p_right))
    ) / n
    kept = sequential_argmin(impurity, 1e-15)
    if kept < 0:
        return None
    f, i = f[kept], i[kept]
    return features[f], cut_threshold(sorted_cols[f, i], sorted_cols[f, i + 1])


def _grow(X, y, rows, rng, mtry, min_leaf) -> _Node:
    pos = int(y[rows].sum())
    n = len(rows)
    if pos == 0 or pos == n or n < 2 * min_leaf:
        return _Node(leaf_value=pos / n)
    d = X.shape[1]
    sampled = np.sort(rng.choice(d, size=min(mtry, d), replace=False))
    split = _best_node_split(X, y, rows, sampled, min_leaf)
    if split is None:
        # the sampled features are constant here; retry with all features so a
        # usable split elsewhere is not missed, then give up
        if len(sampled) < d:
            split = _best_node_split(X, y, rows, np.arange(d), min_leaf)
        if split is None:
            return _Node(leaf_value=pos / n)
    feature, threshold = split
    go_left = X[rows, feature] <= threshold
    left = _grow(X, y, rows[go_left], rng, mtry, min_leaf)
    right = _grow(X, y, rows[~go_left], rng, mtry, min_leaf)
    return _Node(feature=int(feature), threshold=float(threshold), left=left, right=right)


def train_random_forest(X, y, config: ForestConfig | None = None) -> RandomForestModel:
    config = config or ForestConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if len(np.unique(y)) < 2:
        raise ClassCollapse("training labels contain a single class")
    n, d = X.shape
    mtry = config.mtry if config.mtry is not None else math.ceil(math.sqrt(d))
    trees = []
    for tree_index in range(config.trees):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([config.seed, tree_index]))
        )
        bootstrap = rng.integers(0, n, size=n)
        trees.append(_grow(X, y, bootstrap, rng, mtry, config.min_leaf))
    return RandomForestModel(trees=trees, n_features=d, config=config)
