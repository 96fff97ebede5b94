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

from oracles import ref_best_node_split, ref_best_stump, ref_predict_one, ref_sequential_argmin

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


class TestNodeSplit:
    @given(problem=node_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_loop(self, problem):
        got = _best_node_split(*problem)
        want = ref_best_node_split(*problem)
        assert (got is None) == (want is None)
        if want is not None:
            assert int(got[0]) == int(want[0])
            X, _, rows, _, _ = problem
            assert_same_cut(X[rows, want[0]], got[1], want[1])


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
