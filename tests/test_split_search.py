"""The vectorized split searches against the loops they replaced.

The reference loops live in ``oracles``; every comparison here is exact
(bit-equal thresholds, errors and scores), on small tie-heavy data where
the ``1e-15`` Gini and ``1e-12`` stump tolerances decide which candidate
wins.  The one departure is a cut between two adjacent floats whose
midpoint rounds to the upper one: the reference's threshold then sends
both values left, so there the searches must make the same cut with the
lower value as the threshold (``assert_same_cut``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rahar.models import AdaBoostConfig, ForestConfig, cross_validate, train_random_forest
from rahar.models.boosting import _best_stump
from rahar.models.forest import _best_node_split
from rahar.models.search import sequential_argmin

from oracles import (
    ref_best_node_split,
    ref_best_stump,
    ref_predict_one,
    ref_sequential_argmin,
    ref_train_random_forest,
)

TOLERANCES = st.sampled_from([0.0, 1e-15, 1e-12])


@st.composite
def near_ties(draw):
    """Float64 vectors of a few base values, each shifted by multiples of 1e-16."""
    levels = st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0, -2.0])
    bases = draw(st.lists(levels, min_size=1, max_size=3))
    n = draw(st.integers(0, 30))
    picks = draw(st.lists(st.sampled_from(bases), min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    return np.array([b + 1e-16 * k for b, k in zip(picks, steps)])


ANY_FLOATS = hnp.arrays(np.float64, st.integers(0, 30), elements=st.floats(allow_nan=True))


class TestSequentialArgmin:
    @given(values=st.one_of(ANY_FLOATS, near_ties()), tol=TOLERANCES)
    @settings(max_examples=150, deadline=None)
    def test_equals_literal_scan(self, values, tol):
        assert sequential_argmin(values, tol) == ref_sequential_argmin(values, tol)

    def test_keeps_the_first_of_a_near_tie_not_the_argmin(self):
        x = 0.3
        values = np.array([x, x - 0.9e-15, x - 0.95e-15])
        assert np.argmin(values) == 2
        assert sequential_argmin(values, 1e-15) == ref_sequential_argmin(values, 1e-15) == 0

    def test_special_values(self):
        inf, nan = np.inf, np.nan
        for values, kept in (
            ([nan, nan], -1),
            ([inf, inf], -1),
            ([], -1),
            ([nan, 1.0, -inf, 0.5], 2),
            ([2.0, -inf, -inf], 1),
        ):
            values = np.array(values, dtype=float)
            assert sequential_argmin(values, 1e-15) == ref_sequential_argmin(values, 1e-15) == kept


@st.composite
def node_problems(draw, jitter=1e-16):
    """A tie-heavy feature matrix, labels, bootstrap rows with repeats, a feature subset.

    Levels k/3 shifted by ``jitter`` times -1, 0 or 1.  At 1e-16 two values
    can be adjacent floats whose midpoint rounds to the upper one.
    """
    n = draw(st.integers(2, 16))
    d = draw(st.integers(1, 4))
    levels = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(0, 3)))
    shift = draw(hnp.arrays(np.int64, (n, d), elements=st.sampled_from([0, 0, 0, 1, -1])))
    X = levels / 3.0 + jitter * shift
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    min_leaf = draw(st.integers(1, 3))
    size = draw(st.integers(2 * min_leaf, 2 * min_leaf + 20))
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))
    features = np.array(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))))
    return X, y, rows, features, min_leaf


def assert_same_cut(column: np.ndarray, got: float, want: float) -> None:
    """``got`` sends left the rows of ``column`` that the reference's ``want`` meant to.

    Equal literals, except where ``want`` is a midpoint that rounded up to the
    value above the cut: then ``got`` is the value below it.
    """
    if float(got) != float(want):
        lower = column[column < want].max()
        assert want in column and (lower + want) / 2.0 == want and got == lower


def grouped(X, y, rows):
    """The bootstrap ``rows`` as ``_best_node_split`` takes them: the feature columns,
    each row's count in ``rows`` and positives among them, the rows drawn, their total."""
    counts = np.bincount(rows, minlength=len(X)).astype(float)
    return X.T, (counts, counts * y), np.flatnonzero(counts), len(rows)


class TestNodeSplit:
    @given(problem=node_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_loop(self, problem):
        X, y, rows, features, min_leaf = problem
        got = _best_node_split(*grouped(X, y, rows), features, min_leaf)
        want = ref_best_node_split(*problem)
        assert (got is None) == (want is None)
        if want is not None:
            feature, threshold, n_left, pos_left = got
            assert int(feature) == int(want[0])
            assert_same_cut(X[rows, want[0]], threshold, want[1])
            left = X[rows, feature] <= threshold
            assert (n_left, pos_left) == (left.sum(), y[rows][left].sum())


@st.composite
def stump_problems(draw):
    """Tie-heavy features and uniform weights nudged by multiples of 1e-13."""
    n = draw(st.integers(2, 16))
    d = draw(st.integers(1, 3))
    levels = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(0, 3)))
    jitter = draw(hnp.arrays(np.int64, (n, d), elements=st.sampled_from([0, 0, 0, 1, -1])))
    y_signed = np.where(draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1))) == 1, 1.0, -1.0)
    nudge = draw(hnp.arrays(np.int64, n, elements=st.integers(-3, 3)))
    weights = 1.0 / n + 1e-13 * nudge
    if draw(st.booleans()):
        weights = weights / weights.sum()
    return levels / 3.0 + 1e-16 * jitter, y_signed, weights


class TestStump:
    @given(problem=stump_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_loop(self, problem):
        (got, got_err), (want, want_err) = _best_stump(*problem), ref_best_stump(*problem)
        assert got_err == want_err
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.feature, got.polarity) == (want.feature, want.polarity)
            assert_same_cut(problem[0][:, want.feature], got.threshold, want.threshold)


def test_forest_rejects_empty_leaves():
    # the split search relies on every cut leaving a row on each side
    with pytest.raises(ValueError):
        ForestConfig(min_leaf=0)


def test_forest_rejects_no_trees():
    # an empty forest would average zero votes into NaN scores
    with pytest.raises(ValueError):
        ForestConfig(trees=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_forest_rejects_values_that_are_not_finite(value):
    # trees group rows by ==, which NaN never meets, and a cut beside an infinite value
    # would show which of 0.0 and -0.0 the bootstrap drew
    X = np.array([[0.0], [1.0], [value], [2.0]])
    with pytest.raises(ValueError, match="^X must be finite$"):
        train_random_forest(X, np.array([0, 1, 0, 1]))


def adjacent_floats() -> tuple[float, float]:
    """Two adjacent floats whose midpoint rounds to the upper one."""
    a = 1 / 3
    b = float(np.nextafter(a, 1.0))
    if (a + b) / 2.0 != b:
        a, b = b, float(np.nextafter(b, 1.0))
    assert (a + b) / 2.0 == b
    return a, b


class TestAdjacentFloats:
    """A cut between adjacent floats sends the lower one left and the upper one right."""

    def test_forest_separates_them(self):
        a, b = adjacent_floats()
        X = np.array([[a], [b]] * 20)
        y = np.array([0, 1] * 20)
        model = train_random_forest(X, y, ForestConfig(trees=5, seed=3))
        assert model.predict_scores(X).tolist() == y.tolist()

    def test_stump_separates_them(self):
        a, b = adjacent_floats()
        X = np.array([[a], [b], [a], [b]])
        y_signed = np.array([-1.0, 1.0, -1.0, 1.0])
        stump, err = _best_stump(X, y_signed, np.full(4, 0.25))
        assert err == 0.0 and stump.threshold == a
        assert stump.predict(X).tolist() == y_signed.tolist()


class TestForestPrediction:
    @given(problem=node_problems(jitter=1e-9), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_batch_routing_equals_one_row_at_a_time(self, problem, seed):
        X, y, _, _, min_leaf = problem
        if len(np.unique(y)) < 2:
            y = np.arange(len(y)) % 2
        model = train_random_forest(X, y, ForestConfig(trees=5, min_leaf=min_leaf, seed=seed))
        want = np.zeros(len(X))
        for tree in model.trees:
            want += [ref_predict_one(tree, row) for row in X]
        assert model.predict_scores(X).tobytes() == (want / len(model.trees)).tobytes()


# feature values with ties, zeros of either sign, and neighbours 1e-16 apart
FOREST_LEVELS = [0.0, -0.0, 0.3, 0.3 + 1e-16, 0.3 - 1e-16, 1 / 3, 0.5, 1.0, -2.0]


@st.composite
def forest_problems(draw):
    """A few distinct rows repeated many times, a column constant or not, either class."""
    d = draw(st.integers(1, 4))
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), d),
                           elements=st.sampled_from(FOREST_LEVELS)))
    n = draw(st.integers(2, 40))
    X = pool[draw(hnp.arrays(np.int64, n, elements=st.integers(0, len(pool) - 1)))]
    if draw(st.booleans()):  # a constant column
        X[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from(FOREST_LEVELS))
    # the same row with a zero of the other sign
    flip = draw(hnp.arrays(np.bool_, (n, d)))
    X = np.where((X == 0) & flip, -X, X)
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    if len(np.unique(y)) < 2:  # a forest needs both classes
        y[draw(st.integers(0, n - 1))] ^= 1
    config = ForestConfig(
        trees=draw(st.integers(1, 6)),
        mtry=draw(st.sampled_from([None, 1, 2, 3, 5])),
        min_leaf=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    return X, y, config


def same_forest(X, y, config) -> None:
    """The forest and the row-list oracle grow the same trees and score alike."""
    got, want = train_random_forest(X, y, config), ref_train_random_forest(X, y, config)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    probe = np.vstack([X, np.full((1, X.shape[1]), 0.3), -X])
    assert got.predict_scores(probe).tobytes() == want.predict_scores(probe).tobytes()


class TestForestGrowsOnDistinctRows:
    """The forest grown on distinct rows and bootstrap counts against the row-list oracle."""

    @given(problem=forest_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_row_list_oracle(self, problem):
        same_forest(*problem)

    @given(problem=node_problems(jitter=1e-9), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_row_list_oracle_on_rows_mostly_distinct(self, problem, seed):
        X, y, _, _, min_leaf = problem
        y = y if len(np.unique(y)) == 2 else np.arange(len(y)) % 2
        same_forest(X, y, ForestConfig(trees=4, mtry=1, min_leaf=min_leaf, seed=seed))

    def test_a_leaf_of_rows_alike_still_makes_its_draw(self):
        # the left child holds (1, 0, 0) twice, once of each class, so no cut parts it; it
        # draws its feature all the same, and so the right child draws feature 0, as the
        # row-list grower does: had the left child not drawn, the right would split on 2
        X = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        y = np.array([0, 1, 0, 1])
        config = ForestConfig(trees=1, mtry=1, seed=31)
        tree = train_random_forest(X, y, config).trees[0].to_dict()
        assert tree["left"] == {"leaf": 0.5} and tree["right"]["feature"] == 0
        same_forest(X, y, config)

    def test_pinned_datasets(self):
        X, y = pinned_dataset()
        same_forest(X, y, ForestConfig(trees=25, seed=11))
        same_forest(X, y, ForestConfig(trees=10, mtry=1, min_leaf=2, seed=5))


def pinned_dataset():
    rng = np.random.default_rng(2016)
    X = np.round(rng.dirichlet(np.ones(4), size=160), 1)
    y = (X[:, 0] + 0.3 * rng.random(160) > 0.45).astype(np.int64)
    return X, y


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedOutputs:
    """Digests recorded with the per-threshold loops, before vectorization."""

    def test_forest(self):
        X, y = pinned_dataset()
        model = train_random_forest(X, y, ForestConfig(trees=25, seed=11))
        assert sha256(json.dumps(model.to_dict()).encode()) == (
            "10afcbbeeef36fbb66916a3db61a948feeeea82bb6813c41f8092411def1758c"
        )

    def test_forest_cross_validation(self):
        X, y = pinned_dataset()
        cv = cross_validate(X, y, "rf", config=ForestConfig(trees=25, seed=11), folds=5, seed=11)
        assert sha256(cv.pooled_scores.tobytes()) == (
            "55d562de048cb845a0efe02fa1612039ae10ac5fc083080cb530c845cb3e490b"
        )

    def test_adaboost_cross_validation(self):
        X, y = pinned_dataset()
        cv = cross_validate(X, y, "adaboost", config=AdaBoostConfig(rounds=30), folds=5, seed=11)
        assert sha256(cv.pooled_scores.tobytes()) == (
            "33eecf18ca03629225683154f987fc775b2a35acb109097b8b53a2cc4334150c"
        )
