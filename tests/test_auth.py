"""Test statistic kernel, decision rule, and closed-form error probabilities."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rispla.auth import (
    Feature,
    accepts,
    pfa_cir_magnitude,
    pfa_pathloss,
    pmd_cir_phase,
    pmd_pathloss,
    rayleigh_sigma,
    statistic,
    threshold_for_pfa,
    threshold_for_pfa_magnitude,
)
from rispla.specfun import q_func


def gaussian_tail_oracle(x: float) -> float:
    return float(mpmath.ncdf(-x))


def magnitude(zeta, gt):
    return float(statistic(Feature.CIR_MAGNITUDE, zeta, gt))


def phase(zeta, gt):
    return float(statistic(Feature.CIR_PHASE, zeta, gt))


class TestStatistics:
    """The kernel the Monte-Carlo engine applies to every trial."""

    def test_pathloss_distance(self):
        ts = statistic(Feature.PATHLOSS, np.array([5.0, 8.0, 2.0]), 5.0)
        np.testing.assert_array_equal(ts, [0.0, 3.0, 3.0])

    def test_magnitude_three_four_five(self):
        assert magnitude(1 - 2j, 1 - 2j) == 0.0
        assert magnitude(1 - 2j + (3 + 4j), 1 - 2j) == pytest.approx(5.0, abs=1e-12)

    def test_magnitude_chord_length(self):
        phis = np.array([0.3, 1.0, 2.5])
        ts = statistic(Feature.CIR_MAGNITUDE, np.exp(1j * phis), 1.0 + 0j)
        np.testing.assert_allclose(ts, 2 * np.abs(np.sin(phis / 2)), rtol=0, atol=1e-12)

    def test_phase_positive_scaling(self):
        assert phase(2.0 * (0.3 + 0.7j), 0.3 + 0.7j) == pytest.approx(0.0, abs=1e-12)

    def test_phase_antipodal(self):
        assert phase(-(0.3 + 0.7j), 0.3 + 0.7j) == pytest.approx(math.pi, abs=1e-12)

    def test_phase_wraps_branch_cut(self):
        # principal args +0.1 and -0.1, then +3 and -3 where the literal difference is 6
        assert phase(cmath.exp(0.1j), cmath.exp(-0.1j)) == pytest.approx(0.2, abs=1e-12)
        assert phase(cmath.exp(3j), cmath.exp(-3j)) == pytest.approx(2 * math.pi - 6.0,
                                                                      abs=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False,
                              allow_infinity=False))
    def test_phase_magnitude_invariance(self, c, zeta):
        gt = 0.5 - 1.2j
        assert phase(c * zeta, gt) == pytest.approx(phase(zeta, gt), abs=1e-9)


class TestAccepts:
    def test_accept(self):
        assert accepts(0.5, 1.0)

    def test_reject(self):
        assert not accepts(1.5, 1.0)

    def test_tie_rejects(self):
        np.testing.assert_array_equal(accepts(np.array([0.5, 1.0, 1.5]), 1.0),
                                      [True, False, False])


class TestPfaPathloss:
    def test_zero_threshold(self):
        assert pfa_pathloss(0.0, 1.0) == 1.0

    def test_frozen_five_percent(self):
        assert pfa_pathloss(1.95996, 1.0) == pytest.approx(0.0500, abs=1e-4)

    def test_three_sigma(self):
        # frozen: 2 * gaussian_tail_oracle(3) = 2.699796063260189e-3
        assert pfa_pathloss(3.0, 1.0) == pytest.approx(2.6998e-3, abs=1e-6)
        assert pfa_pathloss(3.0, 1.0) == pytest.approx(2 * gaussian_tail_oracle(3.0), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            pfa_pathloss(1.0, 0.0)
        with pytest.raises(ValueError):
            pfa_pathloss(-1.0, 1.0)


class TestThresholdForPfa:
    def test_full_rate_gives_zero(self):
        assert threshold_for_pfa(1.0, 1.0) == 0.0

    def test_frozen_value(self):
        assert threshold_for_pfa(0.05, 1.0) == pytest.approx(1.95996, abs=1e-4)

    def test_sigma_scaling(self):
        assert threshold_for_pfa(0.05, 2.0) == pytest.approx(
            2 * threshold_for_pfa(0.05, 1.0), rel=1e-12)

    def test_round_trip_log_grid(self):
        for p in np.geomspace(1e-6, 1.0, 25):
            for sigma in (0.3, 1.0, 4.0):
                assert pfa_pathloss(threshold_for_pfa(p, sigma), sigma) == pytest.approx(
                    p, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0001, -0.3])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            threshold_for_pfa(p, 1.0)


class TestSigmaDomain:
    """Every closed form refuses a noise scale that is not positive and finite."""

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("closed_form", [
        lambda s: pfa_pathloss(1.0, s),
        lambda s: threshold_for_pfa(0.05, s),
        lambda s: threshold_for_pfa(1.0, s),
        lambda s: pmd_pathloss(1.0, s, 2.0, 3.0),
        lambda s: pfa_cir_magnitude(1.0, s),
        lambda s: threshold_for_pfa_magnitude(0.05, s),
        lambda s: threshold_for_pfa_magnitude(1.0, s),
    ], ids=["pfa_pathloss", "threshold_for_pfa", "threshold_for_pfa-certain", "pmd_pathloss",
            "pfa_cir_magnitude", "threshold_for_pfa_magnitude",
            "threshold_for_pfa_magnitude-certain"])
    @pytest.mark.parametrize("where", ["number", "array"])
    def test_refused(self, closed_form, sigma, where):
        # an array is refused for any element, here the second of a sweep's two
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
            closed_form(sigma if where == "number" else np.array([1.0, sigma]))


class TestThresholdForPfaMagnitude:
    def test_round_trip_log_grid(self):
        for p in np.geomspace(1e-6, 1.0, 25):
            for sigma in (0.3, 1.0, 4.0):
                eps = threshold_for_pfa_magnitude(p, sigma)
                assert pfa_cir_magnitude(eps, rayleigh_sigma(sigma)) == pytest.approx(
                    p, rel=1e-12)

    def test_equals_inline_inversions(self):
        # the Rayleigh quantile C04 and the median C05 computed before they called auth
        for sigma in np.geomspace(1e-3, 10.0, 50).tolist():
            sigma_r = rayleigh_sigma(sigma)
            for q in np.linspace(0.05, 0.95, 10):
                assert threshold_for_pfa_magnitude(1.0 - q, sigma) == (
                    sigma_r * math.sqrt(-2.0 * math.log(1.0 - q)))
            assert threshold_for_pfa_magnitude(0.5, sigma) == (
                sigma_r * math.sqrt(2 * math.log(2)))

    @pytest.mark.parametrize("p", [0.0, -0.3, 1.0001, math.nan])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            threshold_for_pfa_magnitude(p, 1.0)

    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 4.0])
    def test_certain_false_alarm_is_positive_zero(self, sigma):
        # as threshold_for_pfa: 0.0, not the -0.0 of sqrt(-2 log 1)
        eps = threshold_for_pfa_magnitude(1.0, sigma)
        assert eps == 0.0 and math.copysign(1.0, eps) == 1.0


class TestPmdPathloss:
    def test_zero_threshold(self):
        assert pmd_pathloss(0.0, 1.0, 2.0, 5.0) == 0.0

    def test_identical_attacker_complements_pfa(self):
        for eps, sigma in ((0.5, 1.0), (2.0, 0.7), (1.0, 3.0)):
            pmd = pmd_pathloss(eps, sigma, 4.0, 4.0)
            assert pmd == pytest.approx(1.0 - pfa_pathloss(eps, sigma), abs=1e-12)

    def test_frozen_folded_value(self):
        # frozen: P(|2 + n| <= 1) = 0.157305
        assert pmd_pathloss(1.0, 1.0, 3.0, 5.0) == pytest.approx(0.1573, abs=1e-4)

    def test_symmetric_in_swap(self):
        a = pmd_pathloss(0.8, 1.2, 3.0, 7.0)
        b = pmd_pathloss(0.8, 1.2, 7.0, 3.0)
        assert a == pytest.approx(b, abs=1e-14)

    @given(st.floats(min_value=0.01, max_value=5), st.floats(min_value=0.05, max_value=5))
    def test_nonincreasing_in_contrast(self, eps, sigma):
        deltas = np.linspace(0, 10, 30)
        vals = [pmd_pathloss(eps, sigma, 1.0, 1.0 + d) for d in deltas]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @given(st.floats(min_value=0.05, max_value=5), st.floats(min_value=-3, max_value=3))
    def test_monotone_in_threshold(self, sigma, delta):
        eps_grid = np.linspace(0, 8 * sigma, 40)
        pmds = [pmd_pathloss(e, sigma, 2.0, 2.0 + delta) for e in eps_grid]
        pfas = [pfa_pathloss(e, sigma) for e in eps_grid]
        assert all(b >= a - 1e-12 for a, b in zip(pmds, pmds[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(pfas, pfas[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            pmd_pathloss(1.0, -1.0, 2.0, 3.0)


class TestPfaCirMagnitude:
    def test_zero_threshold(self):
        assert pfa_cir_magnitude(0.0, 1.0) == 1.0

    def test_median(self):
        sigma = 1.4
        assert pfa_cir_magnitude(sigma * math.sqrt(2 * math.log(2)), sigma) == pytest.approx(
            0.5, abs=1e-12)

    def test_direct_value(self):
        assert pfa_cir_magnitude(2.0, 1.0) == pytest.approx(0.13534, abs=1e-5)

    def test_strictly_decreasing(self):
        vals = [pfa_cir_magnitude(x, 1.3) for x in np.linspace(0, 10, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            pfa_cir_magnitude(-0.1, 1.0)
        with pytest.raises(ValueError):
            pfa_cir_magnitude(1.0, 0.0)

    def test_rayleigh_scale_convention(self):
        # |CN(0, sigma^2)| with per-part variance sigma^2/2 is Rayleigh(sigma/sqrt(2))
        rng = np.random.default_rng(64)
        sigma = 2.0
        n = (sigma / math.sqrt(2)) * (rng.standard_normal(10**6)
                                      + 1j * rng.standard_normal(10**6))
        eps = 1.3
        emp = np.mean(np.abs(n) > eps)
        expected = pfa_cir_magnitude(eps, rayleigh_sigma(sigma))
        assert emp == pytest.approx(expected, abs=3 * math.sqrt(expected * (1 - expected) / 10**6))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _scalar_calls(fn, *columns):
    """(fn at each element, None), or (None, the message of the first element refused)."""
    try:
        return [fn(*args) for args in zip(*columns)], None
    except ValueError as exc:
        return None, str(exc)


def _array_call(fn, *columns):
    try:
        return fn(*map(np.array, columns)), None
    except ValueError as exc:
        return None, str(exc)


@st.composite
def sweep_points(draw):
    """(eps, sigma, pl_a, pl_e) columns: thresholds include 0 and a huge one, noise scales
    span a sweep's link qualities."""
    n = draw(st.integers(1, 12))
    eps = st.one_of(st.just(0.0), st.just(1e308), st.floats(0.0, 1e3))
    pl = st.floats(0.0, 1e-3)
    return tuple(draw(st.lists(strategy, min_size=n, max_size=n))
                 for strategy in (eps, st.floats(1e-160, 1e150), pl, pl))


class TestElementwiseClosedForms:
    """A sweep computes a baseline's thresholds and analytical column in one call on its
    arrays; each element has the bits of the scalar call, or the array is refused with the
    scalar calls' message."""

    @given(sweep_points(), st.one_of(st.just(1.0), st.floats(1e-300, 1.0)))
    def test_equal_scalar_calls_bit_for_bit(self, points, target_pfa):
        eps, sigma, pl_a, pl_e = points
        for fn, columns in [
            (lambda s: threshold_for_pfa(target_pfa, s), [sigma]),
            (lambda s: threshold_for_pfa_magnitude(target_pfa, s), [sigma]),
            (rayleigh_sigma, [sigma]),
            (pfa_pathloss, [eps, sigma]),
            (pmd_pathloss, [eps, sigma, pl_a, pl_e]),
            (lambda e, s: pfa_cir_magnitude(e, rayleigh_sigma(s)), [eps, sigma]),
            (lambda e, s: pmd_cir_phase(e), [eps, sigma]),
        ]:
            scalars, refused = _scalar_calls(fn, *columns)
            array, array_refused = _array_call(fn, *columns)
            assert array_refused == refused
            if refused is None:
                assert all(type(v) is float for v in scalars)
                assert isinstance(array, np.ndarray) and array.shape == (len(sigma),)
                assert _bits(array) == _bits(scalars)

    def test_huge_threshold_gives_zero_as_the_scalar_call(self):
        # 1e308 / 1e-5 overflows to inf: the false alarm is 2 Q(inf) = 0.0, number or array,
        # while q_func itself still refuses the inf
        assert pfa_pathloss(1e308, 1e-5) == 0.0
        assert type(pfa_pathloss(1e308, 1e-5)) is float
        array = pfa_pathloss(np.array([1.0, 1e308]), np.array([1.0, 1e-5]))
        assert _bits(array) == _bits([pfa_pathloss(1.0, 1.0), 0.0])
        with pytest.raises(ValueError, match="q_func requires finite input, got inf"):
            q_func(math.inf)

    def test_clamped_ratio_keeps_the_bits_past_the_underflow(self):
        # every ratio from 38 up gives q_func's own bits: 0.0 from where erfc underflows
        ratios = np.linspace(38.0, 60.0, 4001)
        assert q_func(40.0) == 0.0
        assert _bits(pfa_pathloss(ratios, 1.0)) == _bits([2.0 * q_func(r) for r in ratios])


class TestPmdCirPhase:
    def test_values(self):
        assert pmd_cir_phase(0.0) == 0.0
        assert pmd_cir_phase(1.0) == 1.0 / math.pi
        assert pmd_cir_phase(math.pi) == 1.0 and pmd_cir_phase(4.0) == 1.0
        assert type(pmd_cir_phase(1.0)) is float

    def test_domain(self):
        with pytest.raises(ValueError):
            pmd_cir_phase(-0.1)
        with pytest.raises(ValueError):
            pmd_cir_phase(np.array([0.1, math.nan]))


class TestNoPhaseArguments:
    def test_analytical_pfa_signatures(self):
        import inspect

        for fn in (pfa_pathloss, pfa_cir_magnitude):
            params = set(inspect.signature(fn).parameters)
            assert params.isdisjoint({"profile", "phases", "phase", "gradient"})
            assert params == {"epsilon", "sigma"}
