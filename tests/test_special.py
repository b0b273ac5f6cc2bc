import math

import numpy as np
import pytest
import scipy.stats
import scipy.special

from voicebench import special
from voicebench.special import betainc, chi2_sf, f_sf, gammainc_upper, normal_sf
from voicebench.errors import DomainError


class TestNormalSf:
    def test_symmetry_point(self):
        assert normal_sf(0.0) == 0.5

    def test_known_value(self):
        # P(Z > 1.96) from the erfc identity
        expected = 0.5 * math.erfc(1.96 / math.sqrt(2.0))
        assert normal_sf(1.96) == expected
        assert abs(expected - 0.024997895148220435) < 1e-15

    def test_against_scipy_grid(self):
        zs = np.linspace(-8.0, 8.0, 161)
        ours = np.array([normal_sf(z) for z in zs])
        ref = scipy.stats.norm.sf(zs)
        assert np.max(np.abs(ours - ref)) < 1e-14


class TestChi2Sf:
    def test_exact_exponential_identity(self):
        # with 2 dof the survival function is exp(-x/2)
        assert abs(chi2_sf(3.6, 2) - math.exp(-1.8)) < 1e-14
        assert abs(chi2_sf(3.6, 2) - 0.16529888822158656) < 1e-15

    def test_against_scipy_grid(self):
        worst = 0.0
        for df in (1, 2, 3, 5, 10, 30, 100):
            for x in np.linspace(0.0, 8.0 * df, 40):
                worst = max(worst, abs(chi2_sf(float(x), df) - scipy.stats.chi2.sf(x, df)))
        assert worst < 1e-10

    def test_boundaries(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(math.inf, 3) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi2_sf(-0.1, 2)
        with pytest.raises(DomainError):
            chi2_sf(1.0, 0)


class TestGammaInc:
    def test_against_scipy_grid(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.5, 7.0, 40.0):
            for x in np.linspace(0.0, 4.0 * a + 10.0, 30):
                worst = max(worst, abs(gammainc_upper(a, float(x)) - scipy.special.gammaincc(a, x)))
        assert worst < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gammainc_upper(0.0, 1.0)
        with pytest.raises(DomainError):
            gammainc_upper(1.0, -1.0)


class TestBetaInc:
    def test_endpoints(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in ((2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (9.0, 1.5, 0.45)):
            assert abs(betainc(a, b, x) - (1.0 - betainc(b, a, 1.0 - x))) < 1e-13

    def test_against_scipy_grid(self):
        worst = 0.0
        for a in (0.5, 1.0, 3.0, 12.0):
            for b in (0.5, 2.0, 8.0):
                for x in np.linspace(0.0, 1.0, 21):
                    worst = max(worst, abs(betainc(a, b, float(x)) - scipy.special.betainc(a, b, x)))
        assert worst < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            betainc(-1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            betainc(1.0, 2.0, 1.5)


class TestFSf:
    def test_against_scipy_grid(self):
        worst = 0.0
        for d1 in (1, 2, 4, 10, 60):
            for d2 in (1, 3, 8, 40, 200):
                for x in np.linspace(0.0, 20.0, 41):
                    worst = max(worst, abs(f_sf(float(x), d1, d2) - scipy.stats.f.sf(x, d1, d2)))
        assert worst < 1e-10

    def test_boundaries(self):
        assert f_sf(0.0, 3, 7) == 1.0
        assert f_sf(math.inf, 3, 7) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_sf(-1.0, 2, 5)
        with pytest.raises(DomainError):
            f_sf(1.0, 0, 5)


class TestConvergence:
    def test_beta_fraction_exhaustion_raises(self):
        # the partial fraction after the iteration cap reads 0.49995615, not 0.5
        with pytest.raises(DomainError, match="did not converge"):
            betainc(1e7, 1e7, 0.5)

    def test_gamma_fraction_exhaustion_raises(self):
        with pytest.raises(DomainError, match="did not converge"):
            gammainc_upper(1e7, 1e7 + 1e3)

    def test_gamma_series_exhaustion_raises(self):
        # the partial series after the cap gives 0.9416; the value is 0.6240
        with pytest.raises(DomainError, match="did not converge"):
            gammainc_upper(1e7, 1e7 - 1e3)

    def test_five_model_shapes_converge_well_inside_the_cap(self, monkeypatch):
        # five models give chi-square df 4 (Kruskal-Wallis) and F df (4, 5r-5)
        # (Levene) for r = 20 and 1000 runs; 24 iterations cover them all
        monkeypatch.setattr(special, "_MAX_ITER", 24)
        for x in [float(v) for v in range(51)] + [100.0, 1000.0]:
            chi2_sf(x, 4)
            f_sf(x, 4, 95)
            f_sf(x, 4, 4995)
