"""Upper-tail probability functions used by the statistical tests.

stdlib erfc/lgamma are the only primitives. The chi-square tail of a whole
df is a finite sum of positive terms. Only the regularized incomplete beta
behind the F tail iterates: a continued fraction that has not converged
within _MAX_ITER terms raises DomainError rather than returning its partial
value. Absolute error on returned tail probabilities stays well inside
1e-10 over the ranges these tests produce.
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


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for chi-square with a whole number df >= 1 of degrees of freedom.

    With h = x/2 the tail is sum(e^-h h^i / Gamma(i + 1)) over i = 0, 1, ...,
    df/2 - 1 for even df, and erfc(sqrt(h)) plus that sum over i = 1/2, 3/2,
    ..., df/2 - 1 for odd df (Abramowitz & Stegun 26.4.4-5). Each term is
    taken in log space, so a large x underflows to 0 instead of overflowing.
    """
    if not (math.isfinite(df) and df >= 1 and df == int(df)):
        raise DomainError(f"chi-square needs a whole number df >= 1, got {df}")
    if x < 0 or not math.isfinite(x):
        if x == math.inf:
            return 0.0
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    log_h = math.log(h)
    offset = 0.5 * (df % 2)
    total = math.erfc(math.sqrt(h)) if offset else 0.0
    for j in range(int(df) // 2):
        i = j + offset
        total += math.exp(i * log_h - h - math.lgamma(i + 1.0))
    return total


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
        raise DomainError("incomplete beta continued fraction did not converge "
                          f"in {_MAX_ITER} iterations at {(a, b, x)}")
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
