"""RBF-kernel SVM trained by sequential minimal optimization.

Pair selection follows the classic heuristic (worst KKT violator paired
with the example maximizing |E1 - E2|, then ordered fallback scans), but
every scan is in deterministic index order so training is reproducible
without any random state. The kernel width follows the common "scale"
rule gamma = 1 / (d * var(X)) computed on the training matrix as given.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TrainMeta, check_predict_input

_ETA_EPS = 1e-12
# minimal relative alpha progress; much tighter than Platt's 1e-3 so the
# solver keeps polishing until every KKT violation is genuinely below tol
_STEP_EPS = 1e-10


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    # the cross term is einsum without optimize, which never calls BLAS: a
    # fixed-order single-threaded product, so the kernel bytes (and the SMO
    # pair choices they decide) do not depend on BLAS threads
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


class _SmoState:
    def __init__(self, kernel, z, c, tol):
        self.k = kernel
        self.z = z
        self.c = c
        self.tol = tol
        n = z.size
        self.alpha = np.zeros(n)
        self.bias = 0.0
        # error cache E_i = f(x_i) - z_i; starts at -z with alpha = 0, b = 0
        self.errors = -z.astype(np.float64)

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        alpha, z, k, c = self.alpha, self.z, self.k, self.c
        a1_old, a2_old = alpha[i1], alpha[i2]
        z1, z2 = z[i1], z[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = z1 * z2

        if z1 != z2:
            low = max(0.0, a2_old - a1_old)
            high = min(c, c + a2_old - a1_old)
        else:
            low = max(0.0, a1_old + a2_old - c)
            high = min(c, a1_old + a2_old)
        if low >= high:
            return False

        eta = k[i1, i1] + k[i2, i2] - 2.0 * k[i1, i2]
        if eta > _ETA_EPS:
            a2 = a2_old + z2 * (e1 - e2) / eta
            a2 = min(max(a2, low), high)
        else:
            # objective is linear along the constraint (duplicate points);
            # slope in a2 is z2*(E2 - E1), so move to the downhill endpoint
            slope = z2 * (e2 - e1)
            if slope > 0:
                a2 = low
            elif slope < 0:
                a2 = high
            else:
                return False

        if abs(a2 - a2_old) < _STEP_EPS * (a2 + a2_old + _STEP_EPS):
            return False
        a1 = a1_old + s * (a2_old - a2)
        if a1 < 0.0:
            a1 = 0.0
        elif a1 > c:
            a1 = c

        d1 = z1 * (a1 - a1_old)
        d2 = z2 * (a2 - a2_old)
        b1 = self.bias - e1 - d1 * k[i1, i1] - d2 * k[i1, i2]
        b2 = self.bias - e2 - d1 * k[i1, i2] - d2 * k[i2, i2]
        if 0.0 < a1 < c:
            bias_new = b1
        elif 0.0 < a2 < c:
            bias_new = b2
        else:
            bias_new = 0.5 * (b1 + b2)

        self.errors += d1 * k[i1] + d2 * k[i2] + (bias_new - self.bias)
        self.bias = bias_new
        alpha[i1] = a1
        alpha[i2] = a2
        return True

    def examine(self, i2: int) -> bool:
        alpha, z, c, tol = self.alpha, self.z, self.c, self.tol
        e2 = self.errors[i2]
        r2 = e2 * z[i2]
        if not ((r2 < -tol and alpha[i2] < c) or (r2 > tol and alpha[i2] > 0.0)):
            return False

        non_bound = np.flatnonzero((alpha > 0.0) & (alpha < c))
        if non_bound.size > 1:
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - e2))])
            if self.take_step(i1, i2):
                return True
        for i1 in non_bound:
            if self.take_step(int(i1), i2):
                return True
        for i1 in range(alpha.size):
            if self.take_step(i1, i2):
                return True
        return False


def train_svm_smo(
    features: np.ndarray,
    labels: np.ndarray,
    c: float = 1.0,
    kkt_tol: float = 1e-3,
    max_passes: int = 10000,
) -> SvmModel:
    features = np.asarray(features, dtype=np.float64)
    z = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    gamma = scale_gamma(features)
    state = _SmoState(rbf_kernel(features, features, gamma), z, c, kkt_tol)

    passes = 0
    examine_all = True
    num_changed = 1
    while (num_changed > 0 or examine_all) and passes < max_passes:
        num_changed = 0
        if examine_all:
            targets = range(z.size)
        else:
            targets = np.flatnonzero((state.alpha > 0.0) & (state.alpha < c))
        for i2 in targets:
            num_changed += int(state.examine(int(i2)))
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True  # final full sweep confirms global KKT
        passes += 1

    converged = passes < max_passes
    support = np.flatnonzero(state.alpha > 0.0)
    meta = TrainMeta(kind="svm", converged=converged, epochs_run=passes)
    return SvmModel(
        support_vectors=features[support].copy(),
        dual_coef=state.alpha[support] * z[support],
        bias=state.bias,
        gamma=gamma,
        meta=meta,
        alphas=state.alpha,
    )
