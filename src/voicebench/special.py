"""Upper-tail probability functions used by the statistical tests.

Implemented from the classic series/continued-fraction expansions of the
regularized incomplete gamma and beta functions, with stdlib erfc/lgamma as
the only primitives. Absolute error on returned tail probabilities stays
well inside 1e-10 over the ranges these tests produce. An expansion that
has not converged within _MAX_ITER terms raises DomainError rather than
returning its partial value.
"""
from __future__ import annotations

import math

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_FPMIN = 1e-300
_EPS = 1e-16
_MAX_ITER = 500


def normal_sf(z: float) -> float:
    """P(Z >= z) for standard normal Z."""
    return 0.5 * math.erfc(z / _SQRT2)


def _no_convergence(expansion: str, *args: float) -> DomainError:
    return DomainError(
        f"{expansion} did not converge in {_MAX_ITER} iterations at {args}"
    )


def _gamma_p_series(a: float, x: float) -> float:
    """Regularized lower gamma P(a, x) by power series; converges for x < a+1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise _no_convergence("incomplete gamma series", a, x)
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_cf(a: float, x: float) -> float:
    """Regularized upper gamma Q(a, x) by continued fraction; for x >= a+1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise _no_convergence("incomplete gamma continued fraction", a, x)
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a)."""
    if a <= 0:
        raise DomainError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise DomainError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_cf(a, x)


def chi2_sf(x: float, df: float) -> float:
    """P(X >= x) for chi-square with df degrees of freedom."""
    if df < 1:
        raise DomainError(f"chi-square needs df >= 1, got {df}")
    if x < 0 or not math.isfinite(x):
        if x == math.inf:
            return 0.0
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    return gammainc_upper(df / 2.0, x / 2.0)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise _no_convergence("incomplete beta continued fraction", a, b, x)
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise DomainError(f"beta parameters must be positive, got {a}, {b}")
    if x < 0 or x > 1:
        raise DomainError(f"beta argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # symmetry switch keeps the continued fraction in its fast region
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(x: float, df_num: float, df_den: float) -> float:
    """P(F >= x) for an F distribution with (df_num, df_den) degrees of freedom."""
    if df_num < 1 or df_den < 1:
        raise DomainError(f"F needs both df >= 1, got ({df_num}, {df_den})")
    if x == math.inf:
        return 0.0
    if x < 0 or not math.isfinite(x):
        raise DomainError(f"F statistic must be >= 0, got {x}")
    return betainc(df_den / 2.0, df_num / 2.0, df_den / (df_den + df_num * x))
