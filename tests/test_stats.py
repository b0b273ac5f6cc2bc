import math

import numpy as np
import pytest
import scipy.stats

from voicebench.stats import (
    PairwiseMatrix,
    compact_letters,
    dunn_bonferroni,
    kruskal_wallis,
    _median,
    levene,
    midranks,
    shapiro_wilk,
)
from voicebench.errors import (
    AllTied,
    SampleTooLarge,
    SampleTooSmall,
    TooFewGroups,
    ZeroVariance,
)


class TestShapiroWilk:
    def test_frozen_anchor(self):
        r = shapiro_wilk(np.arange(1.0, 11.0))
        assert abs(r.statistic - 0.970164611230666) < 1e-9
        assert abs(r.p_value - 0.8923673) < 1e-6

    def test_against_scipy(self):
        rng = np.random.default_rng(123)
        for n in (3, 4, 5, 6, 11, 12, 25, 50, 120, 500):
            for _ in range(4):
                x = rng.normal(size=n) + rng.uniform(-3, 3)
                ours = shapiro_wilk(x)
                ref_w, ref_p = scipy.stats.shapiro(x)
                assert abs(ours.statistic - ref_w) < 1e-8, f"n={n}"
                assert abs(ours.p_value - ref_p) < 1e-6, f"n={n}"

    def test_skewed_sample_rejects_normality(self):
        rng = np.random.default_rng(7)
        x = rng.exponential(size=80)
        r = shapiro_wilk(x)
        assert r.p_value < 1e-4

    def test_n3_exact_branch(self):
        x = np.array([1.0, 2.0, 4.0])
        r = shapiro_wilk(x)
        ref_w, ref_p = scipy.stats.shapiro(x)
        assert abs(r.statistic - ref_w) < 1e-12
        assert abs(r.p_value - ref_p) < 1e-9

    def test_w_never_exceeds_one(self):
        # near-perfectly linear data pushes W against its upper bound
        x = np.linspace(0.0, 1.0, 20)
        r = shapiro_wilk(x + 1e-13 * np.random.default_rng(1).normal(size=20))
        assert r.statistic <= 1.0

    def test_errors(self):
        with pytest.raises(SampleTooSmall):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(SampleTooLarge):
            shapiro_wilk(np.random.default_rng(0).normal(size=5001))
        with pytest.raises(ZeroVariance):
            shapiro_wilk(np.full(10, 3.3))


class TestLevene:
    def test_frozen_anchor(self):
        groups = [[1, 2, 3, 4], [2, 4, 6, 8], [10, 20, 30, 40]]
        r = levene(groups)
        assert abs(r.statistic - 8.342857142857143) < 1e-12
        assert abs(r.p_value - 0.008922342271161334) < 1e-12
        assert r.df == (2, 9)

    def test_against_scipy(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            groups = [rng.normal(0, rng.uniform(0.5, 3.0), size=rng.integers(5, 40))
                      for _ in range(k)]
            ours = levene(groups)
            ref_s, ref_p = scipy.stats.levene(*groups, center="median")
            assert abs(ours.statistic - ref_s) < 1e-10
            assert abs(ours.p_value - ref_p) < 1e-10

    def test_median_bytes_match_numpy(self):
        # ties, signed zeros, odd and even sizes: levene's centers are np.median's bytes
        rng = np.random.default_rng(23)
        for size in list(range(1, 12)) + [100, 101]:
            for decimals in (0, 1, 8):
                g = np.round(rng.normal(0.0, 0.2, size=size), decimals)
                assert np.float64(_median(g)).tobytes() == np.median(g).tobytes(), g

    def test_all_spreads_zero(self):
        # every deviation is zero: 0/0 resolves to "no evidence", not an error
        r = levene([[1.0, 1.0, 1.0], [5.0, 5.0]])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_between_without_within(self):
        # spreads differ across groups but are exactly constant within them
        r = levene([[1.0, 1.0, 1.0], [0.0, 2.0, 0.0, 2.0]])
        assert r.statistic == math.inf
        assert r.p_value == 0.0

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            levene([[1.0, 2.0]])

    def test_tiny_group_rejected(self):
        with pytest.raises(ValueError):
            levene([[1.0], [2.0, 3.0]])


class TestMidranks:
    def test_no_ties(self):
        ranks, tie_sizes = midranks(np.array([30.0, 10.0, 20.0]))
        assert np.array_equal(ranks, [3.0, 1.0, 2.0])
        assert np.array_equal(tie_sizes, [1, 1, 1])

    def test_ties_share_average(self):
        ranks, tie_sizes = midranks(np.array([1.0, 2.0, 2.0, 3.0]))
        assert np.array_equal(ranks, [1.0, 2.5, 2.5, 4.0])
        assert sorted(tie_sizes.tolist()) == [1, 1, 2]

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(77)
        x = rng.integers(0, 10, size=200).astype(float)
        ranks, _ = midranks(x)
        assert np.array_equal(ranks, scipy.stats.rankdata(x))


class TestKruskalWallis:
    def test_frozen_anchor(self):
        r = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert abs(r.statistic - 7.2) < 1e-12
        assert abs(r.p_value - math.exp(-3.6)) < 1e-12
        assert r.df == 2

    def test_against_scipy(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            groups = [np.round(rng.normal(rng.uniform(-1, 1), 1.0,
                                          size=rng.integers(5, 40)), 1)
                      for _ in range(k)]  # rounding forces ties
            ours = kruskal_wallis(groups)
            ref_s, ref_p = scipy.stats.kruskal(*groups)
            assert abs(ours.statistic - ref_s) < 1e-10
            assert abs(ours.p_value - ref_p) < 1e-10

    def test_rank_invariance_under_monotone_map(self):
        rng = np.random.default_rng(44)
        groups = [rng.normal(m, 1.0, size=12) for m in (0.0, 0.5, 2.0)]
        mapped = [np.exp(g) for g in groups]
        a = kruskal_wallis(groups)
        b = kruskal_wallis(mapped)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value

    def test_all_tied(self):
        with pytest.raises(AllTied):
            kruskal_wallis([[2.0, 2.0, 2.0], [2.0, 2.0]])

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            kruskal_wallis([[1.0, 2.0, 3.0]])


class TestDunn:
    def test_frozen_two_group_anchor(self):
        result = dunn_bonferroni([[1, 2, 3, 4, 5], [100, 101, 102, 103, 104]])
        assert result.z.shape == (2, 2)
        assert abs(result.z[0, 1] - -2.6111648393354674) < 1e-12
        assert abs(result.adjusted_p[0, 1] - 0.009023438818080334) < 1e-12

    def test_matrix_structure(self):
        rng = np.random.default_rng(55)
        groups = [rng.normal(m, 1.0, size=15) for m in (0.0, 1.0, 3.0)]
        result = dunn_bonferroni(groups)
        assert np.array_equal(result.adjusted_p, result.adjusted_p.T)
        assert np.all(np.diag(result.adjusted_p) == 1.0)
        # the signed z of the (i, j) comparison is mirrored, not negated
        assert np.array_equal(result.z, result.z.T)
        assert np.all(np.diag(result.z) == 0.0)
        # Bonferroni only ever raises p, capped at 1
        assert np.all(result.adjusted_p >= result.raw_p - 1e-15)
        assert np.all(result.adjusted_p <= 1.0)
        m = len(groups) * (len(groups) - 1) // 2
        off = ~np.eye(3, dtype=bool)
        expected = np.minimum(1.0, result.raw_p[off] * m)
        assert np.allclose(result.adjusted_p[off], expected)

    def test_identical_groups_p_one(self):
        base = np.arange(10.0)
        result = dunn_bonferroni([base, base.copy()])
        assert result.adjusted_p[0, 1] == 1.0

    def test_all_tied_collapses_to_no_difference(self):
        result = dunn_bonferroni([[5.0, 5.0, 5.0], [5.0, 5.0]])
        assert np.all(result.z == 0.0)
        assert np.all(result.adjusted_p == 1.0)

    def test_clear_separation_small_p(self):
        rng = np.random.default_rng(66)
        a = rng.normal(0.0, 0.5, size=25)
        b = rng.normal(10.0, 0.5, size=25)
        result = dunn_bonferroni([a, b])
        assert result.adjusted_p[0, 1] < 1e-6


class TestCompactLetters:
    @staticmethod
    def _pmatrix(k, distinct_pairs, alpha=0.05):
        p = np.ones((k, k))
        for i, j in distinct_pairs:
            p[i, j] = p[j, i] = alpha / 10.0
        return p

    def test_all_same(self):
        letters = compact_letters(np.ones((3, 3)), alpha=0.05)
        assert letters == ["a", "a", "a"]

    def test_all_different(self):
        p = self._pmatrix(3, [(0, 1), (0, 2), (1, 2)])
        letters = compact_letters(p, alpha=0.05)
        assert letters == ["a", "b", "c"]

    def test_chain_pattern(self):
        # 0~1 and 1~2 indistinguishable but 0 and 2 differ: 1 carries both letters
        p = self._pmatrix(3, [(0, 2)])
        letters = compact_letters(p, alpha=0.05)
        assert letters == ["a", "ab", "b"]

    def test_two_blocks_and_singleton(self):
        # groups {0,1}, {2,3}, {4} pairwise distinct across blocks
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        same = {(0, 1), (2, 3)}
        p = self._pmatrix(5, [pr for pr in pairs if pr not in same])
        letters = compact_letters(p, alpha=0.05)
        assert letters == ["a", "a", "b", "b", "c"]

    def test_fidelity_on_random_matrices(self):
        rng = np.random.default_rng(88)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            p = np.ones((k, k))
            iu = np.triu_indices(k, 1)
            vals = rng.uniform(0, 1, size=iu[0].size)
            p[iu] = vals
            p = np.minimum(p, p.T)
            letters = compact_letters(p, alpha=0.3)
            for i in range(k):
                assert letters[i], "every item needs at least one letter"
                for j in range(i + 1, k):
                    share = bool(set(letters[i]) & set(letters[j]))
                    assert share == (p[i, j] > 0.3), (p, letters, i, j)

    def test_deterministic(self):
        rng = np.random.default_rng(99)
        p = np.ones((4, 4))
        iu = np.triu_indices(4, 1)
        p[iu] = rng.uniform(0, 1, size=6)
        p = np.minimum(p, p.T)
        assert compact_letters(p, 0.2) == compact_letters(p.copy(), 0.2)
