"""Closed forms against 60-digit arithmetic (mpmath), over the domain each docstring states.

Each test checks the relative-error bound that the function's docstring gives, at points
spread over its whole stated domain.
"""

import mpmath
import numpy as np
import pytest

from rispla.specfun import folded_normal_moments, q_inv


@pytest.fixture(autouse=True)
def sixty_digits():
    with mpmath.workdps(60):
        yield


def relative_error(got: float, want) -> float:
    return float(abs((mpmath.mpf(got) - want) / want))


def folded_normal_reference(delta: float, sigma: float) -> tuple:
    """Mean and variance of |N(delta, sigma^2)| at 60 digits, from E|X|^2 = delta^2 + sigma^2."""
    d, s = mpmath.mpf(delta), mpmath.mpf(sigma)
    mean = (s * mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-d * d / (2 * s * s))
            + d * (1 - 2 * mpmath.ncdf(-d / s)))
    return mean, d * d + s * s - mean * mean


# |delta| / sigma from 0 through the fold (near 1) and the tails' underflow (about 38) to 1e9,
# where delta^2 + sigma^2 - mean^2 cancels to 0
RATIOS = np.unique([0.0, *np.geomspace(1e-9, 1e9, 73), *np.linspace(0.1, 40.0, 40)])


class TestFoldedNormalMoments:
    BOUND = 4e-15  # the docstring's

    @pytest.mark.parametrize("sigma", np.geomspace(1e-3, 1e3, 7).tolist())
    def test_within_the_stated_bound(self, sigma):
        for ratio in RATIOS.tolist():
            for delta in (ratio * sigma, -ratio * sigma):
                got = folded_normal_moments(delta, sigma)
                for g, want in zip(got, folded_normal_reference(delta, sigma)):
                    assert relative_error(g, want) <= self.BOUND, (delta, sigma, got)

    @pytest.mark.parametrize("ratio", [1e8, 1e9])
    def test_variance_far_past_the_fold(self, ratio):
        # the variance tends to sigma^2; delta^2 + sigma^2 - mean^2 gave 0.0 here
        for delta in (ratio, -ratio):
            assert abs(folded_normal_moments(delta, 1.0)[1] - 1.0) <= self.BOUND


class TestQInv:
    BOUND = 1.5e-15  # the docstring's

    def test_within_the_stated_bound(self):
        # log-spaced over [1e-300, 0.4], both ends included; the root of log Q(x) = log p
        for p in np.geomspace(0.4, 1e-300, 241).tolist():
            x = q_inv(p)
            want = mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(-t)) - mpmath.log(p), x)
            assert relative_error(x, want) <= self.BOUND, p
