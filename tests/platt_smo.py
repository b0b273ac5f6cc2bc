"""Platt's SMO (Platt 1998, MSR-TR-98-14) as the reference for svm tests.

The solver models/svm.py used before LIBSVM's working-set selection: the
worst KKT violator paired with the example maximizing |E1 - E2|, then
ordered fallback scans over the free examples and over all examples, with
full sweeps alternating with sweeps over the free examples. Every scan runs
in index order, so it is deterministic.
"""
import numpy as np

_ETA_EPS = 1e-12
_STEP_EPS = 1e-10


class _SmoState:
    def __init__(self, kernel, z, c, tol):
        self.k = kernel
        self.z = z
        self.c = c
        self.tol = tol
        self.alpha = np.zeros(z.size)
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
            a2 = min(max(a2_old + z2 * (e1 - e2) / eta, low), high)
        else:
            # the objective is linear along the constraint (duplicate rows);
            # its slope in a2 is z2 * (E2 - E1): move to the downhill end
            slope = z2 * (e2 - e1)
            if slope > 0:
                a2 = low
            elif slope < 0:
                a2 = high
            else:
                return False

        if abs(a2 - a2_old) < _STEP_EPS * (a2 + a2_old + _STEP_EPS):
            return False
        a1 = min(max(a1_old + s * (a2_old - a2), 0.0), c)

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


def platt_smo(kernel: np.ndarray, z: np.ndarray, c: float = 1.0, tol: float = 1e-3,
              max_passes: int = 10000):
    """(alphas, bias, converged) for labels z in {-1, +1} on a Gram matrix."""
    state = _SmoState(kernel, z, c, tol)
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
            examine_all = True  # a final full sweep confirms global KKT
        passes += 1
    return state.alpha, state.bias, passes < max_passes
