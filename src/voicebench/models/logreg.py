"""L2-regularized logistic regression trained by Newton's method.

Objective (labels z in {-1, +1}, intercept unpenalized):

    f(w, b) = 0.5 ||w||^2 + c * sum_i softplus(-z_i (x_i . w + b))

With x~ = [x | 1] and p = sigmoid(x~ . (w, b)), the Hessian is
R + c x~^T diag(p (1 - p)) x~, R the identity with a 0 for the intercept.
For c > 0 it is positive definite, so f is strictly convex and each Newton
step descends. The step is halved until the Armijo condition holds, or
until it meets the stopping test: the gradient's sup-norm at most tol.
Hitting the iteration cap, or a line search that runs out, flags the model
as non-converged instead of raising; the fit is still usable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TrainMeta, check_predict_input, sigmoid, softplus

_ARMIJO = 1e-4
_MAX_HALVINGS = 50


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    meta: TrainMeta

    def decision(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.weights.shape[0])
        return features @ self.weights + self.intercept

    def predict(self, features: np.ndarray) -> np.ndarray:
        # probability exactly 0.5 resolves to the positive class
        return (sigmoid(self.decision(features)) >= 0.5).astype(np.int64)


def logreg_objective(theta: np.ndarray, features: np.ndarray, z: np.ndarray, c: float):
    """(value, gradient) of the penalized negative log-likelihood."""
    w, b = theta[:-1], theta[-1]
    margins = z * (features @ w + b)
    value = 0.5 * (w @ w) + c * float(softplus(-margins).sum())
    # d/dm softplus(-m) = -sigmoid(-m)
    coeff = -z * sigmoid(-margins)
    grad = np.empty_like(theta)
    grad[:-1] = w + c * (features.T @ coeff)
    grad[-1] = c * float(coeff.sum())
    return value, grad


def train_logreg(
    features: np.ndarray,
    labels: np.ndarray,
    c: float = 1.0,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> LogisticModel:
    features = np.asarray(features, dtype=np.float64)
    z = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    ridge = np.diag(np.append(np.ones(features.shape[1]), 0.0))
    theta = np.zeros(design.shape[1])
    value, grad = logreg_objective(theta, features, z, c)
    n_iter = 0
    while n_iter < max_iter and np.max(np.abs(grad)) > tol:
        scores = design @ theta
        curvature = sigmoid(scores) * sigmoid(-scores)  # p (1 - p) without cancellation
        step = np.linalg.solve(ridge + c * ((design.T * curvature) @ design), -grad)
        slope = grad @ step
        length = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta + length * step
            trial_value, trial_grad = logreg_objective(trial, features, z, c)
            # near the optimum at large c, f's rounding can hide the decrease
            if (trial_value <= value + _ARMIJO * length * slope
                    or np.max(np.abs(trial_grad)) <= tol):
                break
            length *= 0.5
        else:
            break  # line search exhausted at float limits
        theta, value, grad = trial, trial_value, trial_grad
        n_iter += 1
    converged = bool(np.max(np.abs(grad)) <= tol)
    meta = TrainMeta(kind="logreg", converged=converged, epochs_run=n_iter)
    return LogisticModel(weights=theta[:-1], intercept=float(theta[-1]), meta=meta)
