"""Nonparametric comparison chain: normality, variance homogeneity,
omnibus rank test, post-hoc pairwise test, compact letter display.

Shapiro-Wilk follows Royston's 1995 approximation (AS R94): coefficients
from Blom scores with polynomial endpoint corrections, then a normalizing
transform of 1 - W whose parameters depend on the sample size regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    AllTied,
    SampleTooLarge,
    SampleTooSmall,
    TooFewGroups,
    ZeroVariance,
)
from .special import chi2_sf, f_sf, normal_sf


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df: object = None  # int, tuple, or None depending on the test


@dataclass(frozen=True)
class PairwiseMatrix:
    """Symmetric pairwise z and p matrices; diagonal p values are 1."""

    z: np.ndarray
    raw_p: np.ndarray
    adjusted_p: np.ndarray


# Royston 1995 polynomial coefficients (highest power first).
_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_C3 = (-0.0006714, 0.025054, -0.39978, 0.5440)     # mean of g(1-W), 4 <= n <= 11
_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)     # log sd, 4 <= n <= 11
_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)    # mean of ln(1-W), n >= 12
_C6 = (0.0030302, -0.082676, -0.4803)              # log sd, n >= 12
_PI6 = 6.0 / math.pi
_STQR = math.asin(math.sqrt(0.75))


def _polyval(coeffs, x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _blom_scores(n: int) -> np.ndarray:
    inv = NormalDist().inv_cdf
    return np.array([inv((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])


def shapiro_wilk(values) -> TestResult:
    """Shapiro-Wilk W and its upper-tail p-value for 3 <= n <= 5000."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 3:
        raise SampleTooSmall(f"Shapiro-Wilk needs at least 3 values, got {n}")
    if n > 5000:
        raise SampleTooLarge(f"Shapiro-Wilk approximation tops out at 5000, got {n}")
    if x[-1] - x[0] < 1e-19:
        raise ZeroVariance("all values identical")

    m = _blom_scores(n)
    ss = float(m @ m)
    if n == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    else:
        c = m / math.sqrt(ss)
        u = 1.0 / math.sqrt(n)
        a_last = _polyval(_C1, u) + c[-1]
        if n > 5:
            a_penult = _polyval(_C2, u) + c[-2]
            phi = (ss - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * a_last ** 2 - 2.0 * a_penult ** 2
            )
            a = m / math.sqrt(phi)
            a[-2], a[1] = a_penult, -a_penult
        else:
            phi = (ss - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_last ** 2)
            a = m / math.sqrt(phi)
        a[-1], a[0] = a_last, -a_last

    centered = x - x.mean()
    w = float((a @ x) ** 2 / (centered @ centered))
    w = min(w, 1.0)

    if n == 3:
        p = _PI6 * (math.asin(math.sqrt(w)) - _STQR)
        p = min(max(p, 0.0), 1.0)
        return TestResult(w, p)

    y = math.log(1.0 - w)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        if y >= gamma:
            return TestResult(w, 1e-19)
        y = -math.log(gamma - y)
        mu = _polyval(_C3, float(n))
        sigma = math.exp(_polyval(_C4, float(n)))
    else:
        ln_n = math.log(n)
        mu = _polyval(_C5, ln_n)
        sigma = math.exp(_polyval(_C6, ln_n))
    return TestResult(w, normal_sf((y - mu) / sigma))


def _as_groups(groups) -> list[np.ndarray]:
    out = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if len(out) < 2:
        raise TooFewGroups(f"need at least 2 groups, got {len(out)}")
    for i, g in enumerate(out):
        if g.size == 0:
            raise TooFewGroups(f"group {i} is empty")
    return out


def _median(values: np.ndarray) -> float:
    """np.median of finite 1-D values: the mean of the middle one or two
    sorted values, as np.median takes it, without np.median's NaN check,
    which imports numpy.ma (10-20 ms per process)."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    return ordered[mid - 1 + ordered.size % 2:mid + 1].mean()


def levene(groups) -> TestResult:
    """Brown-Forsythe variant: one-way F on absolute deviations from medians."""
    gs = _as_groups(groups)
    for i, g in enumerate(gs):
        if g.size < 2:
            raise ValueError(f"group {i} needs at least 2 values for a spread")
    k = len(gs)
    devs = [np.abs(g - _median(g)) for g in gs]
    n_total = sum(d.size for d in devs)
    grand = sum(float(d.sum()) for d in devs) / n_total
    between = sum(d.size * (float(d.mean()) - grand) ** 2 for d in devs) / (k - 1)
    within = sum(float(((d - d.mean()) ** 2).sum()) for d in devs) / (n_total - k)
    df = (k - 1, n_total - k)
    if within == 0.0:
        if between == 0.0:
            return TestResult(0.0, 1.0, df)
        return TestResult(math.inf, 0.0, df)
    stat = between / within
    return TestResult(stat, f_sf(stat, df[0], df[1]), df)


def midranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks with ties sharing their average rank.

    Returns (ranks, tie_sizes) where tie_sizes holds the size of every
    group of equal values (singletons included).
    """
    pooled = np.asarray(pooled, dtype=np.float64)
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + 1 + ends) / 2.0
    return avg[inverse], counts.astype(np.int64)


def _tie_sum(tie_sizes: np.ndarray) -> float:
    t = tie_sizes.astype(np.float64)
    return float(np.sum(t ** 3 - t))


def kruskal_wallis(groups) -> TestResult:
    """Kruskal-Wallis H with tie correction; p from chi-square (k-1 df)."""
    gs = _as_groups(groups)
    k = len(gs)
    sizes = np.array([g.size for g in gs])
    pooled = np.concatenate(gs)
    n = pooled.size
    ranks, tie_sizes = midranks(pooled)

    h = 0.0
    offset = 0
    for size in sizes:
        r_sum = float(ranks[offset:offset + size].sum())
        h += r_sum * r_sum / size
        offset += size
    h = 12.0 / (n * (n + 1.0)) * h - 3.0 * (n + 1.0)

    correction = 1.0 - _tie_sum(tie_sizes) / (n ** 3 - n)
    if correction <= 0.0:
        raise AllTied("every pooled value is identical; ranks carry no signal")
    h /= correction
    return TestResult(h, chi2_sf(h, k - 1), k - 1)


def dunn_bonferroni(groups) -> PairwiseMatrix:
    """Dunn's pairwise rank comparison with Bonferroni-adjusted p-values.

    The z statistic for a pair divides the mean-rank difference by
    sqrt((N(N+1)/12 - tie_term) * (1/n_i + 1/n_j)). If pooled values are
    all tied the variance collapses; every pair is then reported as z=0,
    p=1 rather than raised, since "no difference" is the honest answer.
    """
    gs = _as_groups(groups)
    k = len(gs)
    sizes = np.array([g.size for g in gs], dtype=np.float64)
    pooled = np.concatenate(gs)
    n = pooled.size
    ranks, tie_sizes = midranks(pooled)

    mean_ranks = []
    offset = 0
    for size in (int(s) for s in sizes):
        mean_ranks.append(float(ranks[offset:offset + size].mean()))
        offset += size

    var_base = n * (n + 1.0) / 12.0 - _tie_sum(tie_sizes) / (12.0 * (n - 1.0))
    m_pairs = k * (k - 1) // 2
    z = np.zeros((k, k))
    raw = np.ones((k, k))
    adjusted = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            if var_base > 0.0:
                denom = math.sqrt(var_base * (1.0 / sizes[i] + 1.0 / sizes[j]))
                z_ij = (mean_ranks[i] - mean_ranks[j]) / denom
            else:
                z_ij = 0.0
            p_ij = 2.0 * normal_sf(abs(z_ij))
            z[i, j] = z[j, i] = z_ij
            raw[i, j] = raw[j, i] = p_ij
            adjusted[i, j] = adjusted[j, i] = min(1.0, m_pairs * p_ij)
    return PairwiseMatrix(z=z, raw_p=raw, adjusted_p=adjusted)


def compact_letters(adjusted_p: np.ndarray, alpha: float) -> list[str]:
    """Insert-and-absorb compact letter display.

    Items share a letter exactly when their adjusted p-value exceeds alpha.
    Letters are assigned in a deterministic order (columns sorted by their
    member indices), so equal inputs always yield equal displays.
    """
    adjusted_p = np.asarray(adjusted_p, dtype=np.float64)
    k = adjusted_p.shape[0]
    if adjusted_p.shape != (k, k):
        raise ValueError("adjusted_p must be square")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    columns: list[set] = [set(range(k))]
    for i in range(k):
        for j in range(i + 1, k):
            if adjusted_p[i, j] > alpha:
                continue  # not significantly different; may share
            next_columns = []
            for col in columns:
                if i in col and j in col:
                    next_columns.append(col - {i})
                    next_columns.append(col - {j})
                else:
                    next_columns.append(col)
            # absorb: drop empties, proper subsets, and exact duplicates
            pruned = []
            for col in next_columns:
                if not col or any(col < other for other in next_columns):
                    continue
                if col not in pruned:
                    pruned.append(col)
            columns = pruned

    columns.sort(key=lambda col: tuple(sorted(col)))
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    labels = []
    for idx in range(len(columns)):
        if idx < len(alphabet):
            labels.append(alphabet[idx])
        else:
            labels.append(alphabet[idx // 26 - 1] + alphabet[idx % 26])
    out = []
    for item in range(k):
        letters = [labels[c] for c, col in enumerate(columns) if item in col]
        out.append("".join(letters))
    return out
