"""L2-penalized logistic regression fit by iteratively reweighted least squares.

The objective is the mean negative log-likelihood plus (lambda/2)*|w|^2
over the non-intercept weights.  Normalizing by the sample count makes
the optimum invariant under uniform duplication of the dataset, which is
the natural likelihood behaviour.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .search import scoring_input, training_input


@dataclass(frozen=True)
class LogRegConfig:
    l2_lambda: float = 1e-4
    max_iter: int = 200
    tol: float = 1e-8


@dataclass
class LogisticModel:
    weights: np.ndarray  # (d,)
    intercept: float
    config: LogRegConfig
    converged: bool = True

    def predict_scores(self, X) -> np.ndarray:
        z = scoring_input(X, len(self.weights)) @ self.weights + self.intercept
        return _sigmoid(z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_logreg(X, y, config: LogRegConfig | None = None) -> LogisticModel:
    """Newton/IRLS fit; converged when the largest parameter change < tol."""
    config = config or LogRegConfig()
    X, y = training_input(X, y)
    n, d = X.shape

    beta = np.zeros(d + 1)  # [intercept, weights]
    Xb = np.hstack([np.ones((n, 1)), X])
    penalty = np.full(d + 1, config.l2_lambda)
    penalty[0] = 0.0  # intercept is unpenalized

    converged = False
    for _ in range(config.max_iter):
        p = _sigmoid(Xb @ beta)
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        grad = Xb.T @ (p - y) / n + penalty * beta
        w_diag = p * (1.0 - p)
        hess = (Xb.T * w_diag) @ Xb / n + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta - step
        if np.max(np.abs(step)) < config.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"logistic regression did not converge in {config.max_iter} iterations",
            RuntimeWarning,
        )
    return LogisticModel(
        weights=beta[1:].copy(),
        intercept=float(beta[0]),
        config=config,
        converged=converged,
    )
