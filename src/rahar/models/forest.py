"""Random forest of Gini-split binary trees.

Trees are grown on bootstrap samples to purity (or until no usable split
remains), with ``mtry`` features drawn per node.  A tree holds each distinct
training row once, weighted by how often its bootstrap drew it.  Leaves
store their class-1 fraction; the forest score is the mean leaf value over
trees, so purity-grown trees cast hard 0/1 votes and degenerate trees fall
back to their bootstrap class prior.  All randomness derives from per-tree
streams seeded by (seed, tree index), so a forest is reproducible
regardless of training order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .search import cut_threshold, scoring_input, sequential_argmin, training_input


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
        X = scoring_input(X, self.n_features)
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


def _best_node_split(columns, weights, groups, n, features, min_leaf):
    """(feature, threshold, rows left, positives left) minimizing weighted child Gini over
    ``n`` rows: ``columns[:, g]`` for each g in ``groups``, ``weights[0][g]`` times with
    ``weights[1][g]`` positives; None when unsplittable.

    Features are searched in the order given and cuts in ascending order;
    a cut replaces the best one only when it lowers the impurity by more
    than 1e-15, so near-ties go to the earlier feature and smaller cut.
    """
    by_value = groups[columns[features[:, None], groups].argsort(1, kind="stable")]
    sorted_cols = columns[features[:, None], by_value]
    left_n, left_pos = (w[by_value].cumsum(1) for w in weights)
    # every (feature, cut) between two distinct values, feature-major as searched
    cuts = sorted_cols[:, :-1] != sorted_cols[:, 1:]
    if min_leaf > 1:  # else every cut leaves a row on each side, as each group has one
        cuts &= (left_n[:, :-1] >= min_leaf) & (left_n[:, :-1] <= n - min_leaf)
    f, i = cuts.nonzero()
    n_left = left_n[f, i]
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
    threshold = cut_threshold(sorted_cols[f, i], sorted_cols[f, i + 1])
    return features[f], threshold, int(n_left[kept]), int(pos[kept])


def _grow(columns, weights, groups, n, pos, rng, mtry, min_leaf) -> _Node:
    """A tree on ``groups`` (see :func:`_best_node_split`), ``pos`` of its ``n`` rows positive."""
    if pos == 0 or pos == n or n < 2 * min_leaf:
        return _Node(leaf_value=pos / n)
    d = len(columns)
    # drawn also where no cut can part the rows, so that later nodes draw as they did
    sampled = np.sort(rng.choice(d, size=min(mtry, d), replace=False))
    if (columns[:, groups[0]] == columns[:, groups[-1]]).all():  # groups are sorted: all alike
        return _Node(leaf_value=pos / n)
    split = _best_node_split(columns, weights, groups, n, sampled, min_leaf)
    if split is None and len(sampled) < d:  # the sampled features are constant here: try all
        split = _best_node_split(columns, weights, groups, n, np.arange(d), min_leaf)
    if split is None:
        return _Node(leaf_value=pos / n)
    feature, threshold, n_left, pos_left = split
    go_left = columns[feature][groups] <= threshold
    grow = lambda rows, n, pos: _grow(columns, weights, rows, n, pos, rng, mtry, min_leaf)
    left = grow(groups[go_left], n_left, pos_left)
    right = grow(groups[~go_left], n - n_left, pos - pos_left)
    return _Node(feature=int(feature), threshold=float(threshold), left=left, right=right)


def train_random_forest(X, y, config: ForestConfig | None = None) -> RandomForestModel:
    config = config or ForestConfig()
    X, y = training_input(X, y)
    n, d = X.shape
    mtry = config.mtry if config.mtry is not None else math.ceil(math.sqrt(d))
    # the distinct (features, label) rows, sorted: rows of one feature vector are adjacent
    distinct, group_of = np.unique(np.column_stack([X, y]), axis=0, return_inverse=True)
    columns, labels = np.ascontiguousarray(distinct[:, :-1].T), distinct[:, -1].astype(np.int64)
    trees = []
    for tree_index in range(config.trees):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([config.seed, tree_index]))
        )
        bootstrap = rng.integers(0, n, size=n)
        counts = np.bincount(group_of[bootstrap], minlength=len(distinct)).astype(float)
        weights = counts, counts * labels  # float: exact, and no casts in the search
        trees.append(_grow(columns, weights, np.flatnonzero(counts), n,
                           int(weights[1].sum()), rng, mtry, config.min_leaf))
    return RandomForestModel(trees=trees, n_features=d, config=config)
