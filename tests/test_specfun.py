"""Distribution primitives against independent oracles.

Expected values below were computed before the implementation existed:
Gaussian tails by adaptive quadrature, the inverse by bisection on the
quadrature oracle, and folded-normal quantities by direct Monte-Carlo.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from rispla.specfun import (
    FoldedNormalParams,
    folded_normal_cdf,
    folded_normal_moments,
    q_func,
    q_inv,
)


def gaussian_tail_oracle(x: float) -> float:
    """Numerical integration of the standard normal density over (x, inf)."""
    val, _ = integrate.quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
                            x, math.inf)
    return val


class TestQFunc:
    def test_median(self):
        assert q_func(0.0) == 0.5

    def test_tail_limit(self):
        assert q_func(40.0) < 1e-12

    def test_against_quadrature_oracle(self):
        # frozen: gaussian_tail_oracle(1.2816) = 0.09999150009767514
        assert q_func(1.2816) == pytest.approx(0.1000, abs=1e-4)
        for x in (-3.0, -0.7, 0.3, 1.2816, 2.5, 4.0):
            assert q_func(x) == pytest.approx(gaussian_tail_oracle(x), rel=1e-10)

    def test_complement_identity(self):
        for x in np.linspace(-6, 6, 25):
            assert q_func(x) + q_func(-x) == pytest.approx(1.0, abs=1e-14)

    def test_strictly_decreasing(self):
        xs = np.linspace(-8, 8, 200)
        vals = [q_func(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            q_func(math.inf)
        with pytest.raises(ValueError):
            q_func(math.nan)


class TestQInv:
    def test_median(self):
        assert q_inv(0.5) == 0.0

    def test_round_trip_at_two(self):
        assert q_inv(q_func(2.0)) == pytest.approx(2.0, abs=1e-9)

    def test_frozen_bisection_oracle(self):
        # frozen: bisection on the quadrature oracle gives 1.9599639845399883
        assert q_inv(0.025) == pytest.approx(1.95996, abs=1e-4)
        assert q_inv(0.025) == pytest.approx(1.9599639845, abs=1e-8)

    def test_round_trip_log_grid(self):
        for p in np.geomspace(1e-8, 1 - 1e-8, 60):
            assert q_func(q_inv(p)) == pytest.approx(p, rel=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            q_inv(p)

    @given(st.floats(min_value=1e-10, max_value=1 - 1e-10))
    def test_round_trip_property(self, p):
        assert q_func(q_inv(p)) == pytest.approx(p, rel=1e-9)


class TestFoldedNormalCdf:
    def test_zero_at_fold_point(self):
        for delta in (-3.0, 0.0, 0.5, 10.0):
            assert folded_normal_cdf(0.0, FoldedNormalParams(delta, 1.0)) == 0.0

    def test_half_normal_case(self):
        expected = math.erf(1.0 / math.sqrt(2.0))  # 0.6826894921370859
        assert folded_normal_cdf(1.0, FoldedNormalParams(0.0, 1.0)) == pytest.approx(
            expected, abs=1e-10)

    def test_frozen_value_and_mc_oracle(self):
        # frozen: P(|2 + n| <= 1) = 0.157305 (1e7-draw MC oracle gave 0.1572736)
        val = folded_normal_cdf(1.0, FoldedNormalParams(2.0, 1.0))
        assert val == pytest.approx(0.1573, abs=1e-4)
        rng = np.random.default_rng(20250811)
        draws = np.abs(2.0 + rng.standard_normal(10**6))
        emp = np.mean(draws <= 1.0)
        se = math.sqrt(val * (1 - val) / draws.size)
        assert abs(emp - val) < 3 * se

    def test_negative_x_returns_zero(self):
        assert folded_normal_cdf(-0.5, FoldedNormalParams(1.0, 1.0)) == 0.0

    @given(st.floats(min_value=-20, max_value=20), st.floats(min_value=0.01, max_value=10),
           st.floats(min_value=0, max_value=50))
    def test_fold_symmetry(self, delta, sigma, x):
        a = folded_normal_cdf(x, FoldedNormalParams(delta, sigma))
        b = folded_normal_cdf(x, FoldedNormalParams(-delta, sigma))
        assert a == pytest.approx(b, abs=1e-12)

    def test_nondecreasing_and_limits(self):
        params = FoldedNormalParams(1.5, 0.7)
        xs = np.linspace(0, 20, 400)
        vals = [folded_normal_cdf(x, params) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", [(0.0, 1.0), (2.0, 1.0), (-1.0, 0.5)])
    def test_ks_against_sampling(self, params):
        delta, sigma = params
        rng = np.random.default_rng(99)
        n = 10**6
        draws = np.sort(np.abs(delta + sigma * rng.standard_normal(n)))
        p = FoldedNormalParams(delta, sigma)
        cdf = 0.5 * (np.vectorize(math.erf)((draws + delta) / (sigma * math.sqrt(2)))
                     + np.vectorize(math.erf)((draws - delta) / (sigma * math.sqrt(2))))
        ks = np.max(np.abs(cdf - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 0.005

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            FoldedNormalParams(0.0, 0.0)
        with pytest.raises(ValueError):
            FoldedNormalParams(0.0, -1.0)


class TestFoldedNormalMoments:
    def test_half_normal(self):
        mean, var = folded_normal_moments(FoldedNormalParams(0.0, 1.0))
        assert mean == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)
        assert var == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)

    def test_far_fold_asymptote(self):
        mean, var = folded_normal_moments(FoldedNormalParams(100.0, 1.0))
        assert mean == pytest.approx(100.0, abs=1e-6)
        assert var == pytest.approx(1.0, abs=1e-6)

    def test_frozen_values(self):
        # frozen from a 1e7-draw MC oracle: mean 2.0175, var 0.9325
        mean, var = folded_normal_moments(FoldedNormalParams(2.0, 1.0))
        assert mean == pytest.approx(2.0170, rel=5e-3)
        assert var == pytest.approx(0.9318, rel=5e-3)

    def test_sample_agreement_three_se(self):
        rng = np.random.default_rng(4242)
        n = 10**6
        for delta, sigma in ((2.0, 1.0), (0.3, 2.0), (-1.5, 0.4)):
            draws = np.abs(delta + sigma * rng.standard_normal(n))
            mean, var = folded_normal_moments(FoldedNormalParams(delta, sigma))
            se_mean = math.sqrt(var / n)
            assert abs(draws.mean() - mean) < 3 * se_mean
            se_var = var * math.sqrt(2.0 / (n - 1))  # normal-theory approximation
            assert abs(draws.var() - var) < 4 * se_var

    @given(st.floats(min_value=-10, max_value=10), st.floats(min_value=0.05, max_value=5))
    def test_mean_lower_bound(self, delta, sigma):
        mean, var = folded_normal_moments(FoldedNormalParams(delta, sigma))
        phi_neg = 0.5 * math.erfc((abs(delta) / sigma) / math.sqrt(2))
        assert mean >= abs(delta) * (1 - 2 * phi_neg) - 1e-12
        assert var >= 0.0

