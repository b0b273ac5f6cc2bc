"""L2-regularized logistic regression trained with a small L-BFGS.

Objective (labels z in {-1, +1}, intercept unpenalized):

    f(w, b) = 0.5 ||w||^2 + c * sum_i softplus(-z_i (x_i . w + b))

Minimized by limited-memory BFGS (two-loop recursion, history 10) with
Armijo backtracking. Hitting the iteration cap flags the model as
non-converged instead of raising; the fit is still usable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TrainMeta, check_predict_input, sigmoid, softplus

_MEMORY = 10
_ARMIJO = 1e-4
_MAX_HALVINGS = 50


def minimize_lbfgs(fun_grad, x0: np.ndarray, tol: float, max_iter: int):
    """Minimize fun_grad: x -> (f, grad). Returns (x, converged, n_iter).

    Convergence is declared on the sup-norm of the gradient. Curvature
    pairs are only kept when s.y is safely positive, which keeps the
    implicit Hessian estimate positive definite.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_grad(x)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []

    for iteration in range(max_iter):
        if np.max(np.abs(g)) <= tol:
            return x, True, iteration

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            beta = rho * (y @ q)
            q += (a - beta) * s
        direction = -q
        slope = g @ direction
        if slope >= 0.0:  # stale curvature; fall back to steepest descent
            direction = -g
            slope = -(g @ g)

        step = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new = x + step * direction
            f_new, g_new = fun_grad(x_new)
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            return x, False, iteration  # line search exhausted at float limits

        s_vec = x_new - x
        y_vec = g_new - g
        sy = s_vec @ y_vec
        if sy > 1e-10 * float(np.linalg.norm(s_vec) * np.linalg.norm(y_vec) + 1e-300):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, g = x_new, f_new, g_new

    converged = bool(np.max(np.abs(g)) <= tol)
    return x, converged, max_iter


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
    theta0 = np.zeros(features.shape[1] + 1)
    theta, converged, n_iter = minimize_lbfgs(
        lambda t: logreg_objective(t, features, z, c), theta0, tol, max_iter
    )
    meta = TrainMeta(kind="logreg", converged=converged, epochs_run=n_iter)
    return LogisticModel(weights=theta[:-1], intercept=float(theta[-1]), meta=meta)
