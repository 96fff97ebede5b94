"""Binary classifier evaluation: ROC/AUC, confusion metrics, F1.

Positive class = good sleep efficiency (label 1).  The ROC curve sweeps
every distinct score threshold, so tied scores produce diagonal jumps
and the trapezoidal AUC equals the rank-based estimator
P(score+ > score-) + 0.5 * P(tie).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import SingleClassAUC


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class EvalReport:
    auc: float
    f1: float
    precision: float
    recall: float
    accuracy: float
    sensitivity: float
    specificity: float
    confusion: ConfusionCounts
    roc_points: list[tuple[float, float]] = field(default_factory=list)

    def summary(self) -> dict:
        """Every field but ``roc_points``, as JSON values."""
        return {k: v for k, v in asdict(self).items() if k != "roc_points"}


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; zero when both vanish."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def roc_curve(scores, y) -> list[tuple[float, float]]:
    """(fpr, tpr) staircase from (0,0) to (1,1), one point per distinct score."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y)
    if scores.shape != y.shape:
        raise ValueError("scores and labels must align")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassAUC("ROC needs at least one example of each class")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_y = y[order]
    tps = np.cumsum(sorted_y == 1)
    fps = np.cumsum(sorted_y == 0)
    # keep only the last index of each tied score block
    distinct = np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    return [(0.0, 0.0), *zip((fps[distinct] / n_neg).tolist(), (tps[distinct] / n_pos).tolist())]


def auc_trapezoid(points: list[tuple[float, float]]) -> float:
    fpr = np.asarray([p[0] for p in points])
    tpr = np.asarray([p[1] for p in points])
    return float(np.trapezoid(tpr, fpr))


def evaluate(scores, y, class_threshold: float = 0.5) -> EvalReport:
    """Threshold-free ROC/AUC plus point metrics at the class threshold.

    A score >= class_threshold predicts class 1.  Precision is defined as
    zero when nothing is predicted positive.
    """
    points = roc_curve(scores, y)  # checks the labels before the cast
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    auc = auc_trapezoid(points)

    pred = scores >= class_threshold
    actual = y == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    tn = int(np.sum(~pred & ~actual))
    fn = int(np.sum(~pred & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    accuracy = (tp + tn) / len(y)
    return EvalReport(
        auc=auc,
        f1=f1_score(precision, recall),
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        sensitivity=recall,
        specificity=specificity,
        confusion=ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn),
        roc_points=points,
    )
