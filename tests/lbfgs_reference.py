"""L-BFGS as the reference minimizer for logreg tests.

The solver models/logreg.py used before Newton's method: the two-loop
recursion over a 10-pair history, with Armijo backtracking, a curvature-pair
filter and a steepest-descent fallback.
"""
import numpy as np

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
