"""RBF-kernel SVM trained by LIBSVM's SMO solver.

Each iteration moves one pair of dual variables analytically inside the
box [0, c]: i is the maximal violator in I_up and j the I_low index of
largest second-order gain (working-set selection 2 of Fan, Chen & Lin 2005,
JMLR 6:1889-1918; curvature at or below 0 takes tau = 1e-12). Training stops
when the maximal violating pair's gap m(alpha) - M(alpha) falls below
kkt_tol (Chang & Lin 2011, ACM TIST 2(3):27, LIBSVM's eps), or at max_iter
iterations. Every argmin and argmax takes the first index, so training is
reproducible without any random state. The kernel width follows the common
"scale" rule gamma = 1 / (d * var(X)) computed on the training matrix as
given.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TrainMeta, check_predict_input

_TAU = 1e-12


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    # the cross term is einsum without optimize, which never calls BLAS: a
    # fixed-order single-threaded product, so the kernel bytes (and the
    # working-set choices they decide) do not depend on BLAS threads
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * np.einsum("ik,jk->ij", a, b)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def scale_gamma(features: np.ndarray) -> float:
    var = float(features.var())
    if var <= 0.0:
        return 1.0
    return 1.0 / (features.shape[1] * var)


@dataclass
class SvmModel:
    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * z_i per support vector
    bias: float
    gamma: float
    meta: TrainMeta
    alphas: np.ndarray = None        # full training alphas, kept for audits

    def decision(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.support_vectors.shape[1])
        k = rbf_kernel(features, self.support_vectors, self.gamma)
        return k @ self.dual_coef + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.decision(features) >= 0.0).astype(np.int64)


def train_svm_smo(
    features: np.ndarray,
    labels: np.ndarray,
    c: float = 1.0,
    kkt_tol: float = 1e-3,
    max_iter: int = 10000,
) -> SvmModel:
    features = np.asarray(features, dtype=np.float64)
    z = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    gamma = scale_gamma(features)
    k = rbf_kernel(features, features, gamma)
    diag = k.diagonal()
    positive = z > 0
    alpha = np.zeros(z.size)
    # E_t = sum_s alpha_s z_s K_ts - z_t, the training error before the bias;
    # it is z_t times the dual gradient, so I_up's maximal violator is its
    # minimum and the gap is max over I_low of E minus that minimum
    errors = -z
    iterations = 0
    while True:
        up = np.where(positive, alpha < c, alpha > 0.0)
        low = np.where(positive, alpha > 0.0, alpha < c)
        i = int(np.argmin(np.where(up, errors, np.inf)))
        gain = np.where(low, errors - errors[i], -np.inf)
        gap = float(gain.max())
        if gap < kkt_tol or iterations == max_iter:
            break
        curvature = diag[i] + diag - 2.0 * k[i]
        curvature[curvature <= 0.0] = _TAU
        j = int(np.argmax(np.where(gain > 0.0, gain * gain / curvature, -1.0)))
        # alpha_i moves by z_i * step and alpha_j by -z_j * step, which keeps
        # sum(alpha * z); the step goes to the minimum along that line unless
        # the box stops it first, and a bound it reaches is set exactly
        room_i = c - alpha[i] if z[i] > 0 else alpha[i]
        room_j = alpha[j] if z[j] > 0 else c - alpha[j]
        step = min(gain[j] / curvature[j], room_i, room_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = (c if z[i] > 0 else 0.0) if step == room_i else old_i + z[i] * step
        alpha[j] = (0.0 if z[j] > 0 else c) if step == room_j else old_j - z[j] * step
        errors += k[i] * (z[i] * (alpha[i] - old_i)) + k[j] * (z[j] * (alpha[j] - old_j))
        iterations += 1

    free = up & low
    if free.any():
        bias = -float(np.mean(errors[free]))
    else:  # LIBSVM's rho: the midpoint of the interval the bounds allow
        bias = -float(errors[i] + 0.5 * gap)
    support = np.flatnonzero(alpha > 0.0)
    meta = TrainMeta(kind="svm", converged=gap < kkt_tol, epochs_run=iterations)
    return SvmModel(
        support_vectors=features[support].copy(),
        dual_coef=alpha[support] * z[support],
        bias=bias,
        gamma=gamma,
        meta=meta,
        alphas=alpha,
    )
