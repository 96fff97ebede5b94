"""Each argument guard of the library that no other test runs: the call, the
exception type it raises and its whole message.  The model rows check that the
three models accept and refuse input by one rule."""

from __future__ import annotations

import numpy as np
import pytest

from rahar.changepoint import best_split, energy_divergence
from rahar.cutpoints import IntensityLevel, classify_series
from rahar.errors import ClassCollapse, DimensionMismatch, EmptyAwakeSpan
from rahar.features import build_dataset, extract_features, raw_fractions
from rahar.models import (
    MODEL_KINDS,
    LogRegConfig,
    evaluate,
    make_config,
    roc_curve,
    stratified_folds,
    train,
)
from rahar.modes import ActivityMode, label_intervals
from rahar.segments import SleepWakeSegment, segment_sleep_wake
from rahar.sleep import SleepMetrics, SleepPeriod, SleepRules, compute_waso

from conftest import make_series

SED = IntensityLevel.SEDENTARY
METRICS = SleepMetrics(480, 0, 0, 480, 480, 1.0, 0)
UNKNOWN_KIND = f"unknown model kind 'svm', expected one of {MODEL_KINDS}"


def segment(awake: int) -> SleepWakeSegment:
    return SleepWakeSegment(0, awake, SleepPeriod(awake, awake + 480), METRICS,
                            empty_awake=awake == 0)


def mode(start: int, end: int) -> ActivityMode:
    return ActivityMode(start, end, SED, (end - start, 0, 0, 0))


X4 = [[0.1], [0.8], [0.2], [0.9]]  # not separable, so logistic regression converges
Y4 = [0, 0, 1, 1]

GUARDS = [
    ("best_split-3d", lambda: best_split(np.zeros((4, 2, 2))), ValueError,
     "observations must be 1-D or 2-D, got shape (4, 2, 2)"),
    ("best_split-nan", lambda: best_split([0.0, 1.0, np.nan, 2.0]), ValueError,
     "observations must be finite"),
    ("energy_divergence-columns", lambda: energy_divergence(np.zeros((3, 2)), np.zeros((3, 3))),
     ValueError, "X and Y must have the same dimensionality"),
    ("classify_series-signal", lambda: classify_series(make_series([0] * 3), signal="x"),
     ValueError, "unknown signal 'x', expected 'axis1' or 'vm3'"),
    ("extract_features-gap", lambda: extract_features(segment(10), [mode(0, 4), mode(5, 10)]),
     ValueError, "modes must tile the awake span without gaps"),
    ("raw_fractions-empty", lambda: raw_fractions(segment(0), []), EmptyAwakeSpan,
     "cannot extract fractions from a zero-length awake span"),
    ("raw_fractions-length", lambda: raw_fractions(segment(5), [SED] * 4), ValueError,
     "intensity labels must align with the awake span"),
    ("build_dataset-lengths", lambda: build_dataset([segment(5)], []), ValueError,
     "segments and features must align"),
    ("roc_curve-lengths", lambda: roc_curve([0.1, 0.2], [0, 1, 1]), ValueError,
     "scores and labels must align"),
    ("roc_curve-label-2", lambda: roc_curve([0.1, 0.2, 0.3, 0.9], [0, 1, 2, 1]), ValueError,
     "labels must be 0 or 1"),
    ("evaluate-label-2", lambda: evaluate([0.1, 0.2, 0.3, 0.9], [0, 1, 2, 1]), ValueError,
     "labels must be 0 or 1"),
    ("evaluate-label-half", lambda: evaluate([0.1, 0.2, 0.3, 0.9], [0, 1, 0.5, 1]), ValueError,
     "labels must be 0 or 1"),
    ("stratified_folds-1", lambda: stratified_folds([0, 0, 1, 1], 1), ValueError,
     "need at least 2 folds"),
    ("label_intervals-tie_break", lambda: label_intervals([SED] * 2, [], tie_break="x"),
     ValueError, "tie_break must be one of ('lower', 'higher'), got 'x'"),
    ("ActivityMode-empty", lambda: mode(3, 3), ValueError, "mode interval must be non-empty"),
    ("segment_sleep_wake-past-end",
     lambda: segment_sleep_wake(make_series([0] * 5), [SleepPeriod(2, 5)], [METRICS]),
     ValueError, "period out of series bounds"),
    ("SleepRules-onset_run-0", lambda: SleepRules(onset_run=0), ValueError,
     "sleep rule thresholds must be positive"),
    ("SleepPeriod-backwards", lambda: SleepPeriod(5, 4), ValueError,
     "onset must not come after awakening"),
    ("compute_waso-past-end", lambda: compute_waso(np.ones(4, bool), SleepPeriod(1, 4)),
     ValueError, "period out of mask bounds"),
    ("make_config-unknown-kind", lambda: make_config("svm"), ValueError, UNKNOWN_KIND),
    ("train-unknown-kind", lambda: train("svm", X4, Y4, config=LogRegConfig()), ValueError,
     UNKNOWN_KIND),
    # one input rule for every model kind: training input, then scoring input
    *((f"train-{kind}-{name}", lambda kind=kind, X=X, y=y: train(kind, X, y), error, message)
      for kind in MODEL_KINDS
      for name, X, y, error, message in [
          ("X-1d", [0.1, 0.2, 0.8, 0.9], Y4, ValueError, "X must be 2-D"),
          ("X-nan", [[0.1], [np.nan], [0.8], [0.9]], Y4, ValueError, "X must be finite"),
          ("X-inf", [[0.1], [0.2], [np.inf], [0.9]], Y4, ValueError, "X must be finite"),
          ("y-6-for-4-rows", X4, [0, 0, 1, 1, 0, 1], DimensionMismatch,
           "expected one label per row of X (4, 1), got y (6,)"),
          ("y-column", X4, [[0], [0], [1], [1]], DimensionMismatch,
           "expected one label per row of X (4, 1), got y (4, 1)"),
          ("y-0-2", X4, [0, 0, 2, 2], ValueError, "training labels must be 0 or 1"),
          ("y-minus-1-1", X4, [-1, -1, 1, 1], ValueError, "training labels must be 0 or 1"),
          ("y-half", X4, [0, 0, 1, 0.5], ValueError, "training labels must be 0 or 1"),
          ("y-one-class", X4, [1, 1, 1, 1], ClassCollapse,
           "training labels contain a single class"),
      ]),
    *((f"predict-{kind}-{name}", lambda kind=kind, X=X: train(kind, X4, Y4).predict_scores(X),
       DimensionMismatch, message)
      for kind in MODEL_KINDS
      for name, X, message in [
          ("2-features", [[0.1, 0.2]], "expected 1 features, got (1, 2)"),
          ("X-1d", [0.1, 0.2], "expected 1 features, got (2,)"),
      ]),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in GUARDS],
                         ids=[row[0] for row in GUARDS])
def test_guard(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_model_takes_labels_as_bools_floats_or_ints_alike(kind):
    scores = [train(kind, X4, y).predict_scores(X4).tolist()
              for y in (Y4, np.array(Y4, bool), np.array(Y4, float))]
    assert scores[0] == scores[1] == scores[2]
