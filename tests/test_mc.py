"""Monte-Carlo engine: determinism, closed-form agreement, distribution checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rispla import mc
from rispla.auth import Feature, accepts, rayleigh_sigma, threshold_for_pfa
from rispla.channel import PerElement, ScalarGradient
from rispla.mc import (
    ErrorEstimate,
    Hypothesis,
    TrialPlan,
    empirical_distribution,
    roc_sweep,
    run_trials,
)
from rispla.specfun import FoldedNormalParams, folded_normal_cdf


def pathloss_plan(scenario, *, n=10**5, seed=42, gradient=0.0, **kw):
    return TrialPlan(n_trials=n, master_seed=seed, feature=Feature.PATHLOSS,
                     scenario=scenario, profile=ScalarGradient(gradient), **kw)


def cir_plan(scenario, feature, *, n=10**4, seed=7, phases=None, **kw):
    phases = np.zeros(scenario.n_elements) if phases is None else phases
    return TrialPlan(n_trials=n, master_seed=seed, feature=feature,
                     scenario=scenario, profile=PerElement(phases), **kw)


class TestTrialPlanValidation:
    def test_feature_profile_compatibility(self, scenario_small):
        with pytest.raises(ValueError, match="ScalarGradient"):
            TrialPlan(n_trials=10, master_seed=1, feature=Feature.PATHLOSS,
                      scenario=scenario_small, profile=PerElement(np.zeros(8)))
        with pytest.raises(ValueError, match="PerElement"):
            TrialPlan(n_trials=10, master_seed=1, feature=Feature.CIR_PHASE,
                      scenario=scenario_small, profile=ScalarGradient(0.0))

    def test_profile_length(self, scenario_small):
        with pytest.raises(ValueError, match="phases"):
            cir_plan(scenario_small, Feature.CIR_MAGNITUDE, phases=np.zeros(5))

    def test_bounds(self, scenario_small):
        with pytest.raises(ValueError):
            pathloss_plan(scenario_small, n=0)
        with pytest.raises(ValueError):
            pathloss_plan(scenario_small, seed=-3)
        plan = pathloss_plan(scenario_small, n=10)
        for bad_threshold in (-1.0, math.nan):
            with pytest.raises(ValueError):
                run_trials(plan, bad_threshold)


class TestErrorEstimate:
    def test_half_width_formula(self):
        est = ErrorEstimate.from_counts(50, 1000)
        assert est.value == 0.05
        assert est.half_width_95 == pytest.approx(
            1.96 * math.sqrt(0.05 * 0.95 / 1000), rel=1e-12)
        assert not est.low_confidence

    def test_zero_conditioning_flagged(self):
        est = ErrorEstimate.from_counts(0, 0)
        assert math.isnan(est.value)
        assert est.n_conditioning == 0
        assert est.low_confidence


class TestRunTrials:
    def test_huge_threshold_always_accepts(self, scenario_small):
        pfa, pmd = run_trials(pathloss_plan(scenario_small, n=2000), 1e12)
        assert pfa.value == 0.0
        assert pmd.value == 1.0

    def test_zero_threshold_always_rejects(self, scenario_small):
        pfa, pmd = run_trials(pathloss_plan(scenario_small, n=2000), 0.0)
        assert pfa.value == 1.0
        assert pmd.value == 0.0

    def test_pathloss_pfa_matches_closed_form(self, scenario_small):
        sigma = scenario_small.noise_sigma
        eps = threshold_for_pfa(0.05, sigma)
        pfa, _ = run_trials(pathloss_plan(scenario_small, n=10**6), eps)
        se = math.sqrt(0.05 * 0.95 / pfa.n_conditioning)
        assert abs(pfa.value - 0.05) < 3 * se

    def test_uniform_transmitter_split(self, scenario_small):
        n = 10**5
        pfa, pmd = run_trials(pathloss_plan(scenario_small, n=n), 1.0)
        assert pfa.n_conditioning + pmd.n_conditioning == n
        assert abs(pfa.n_conditioning - n / 2) < 5 * math.sqrt(n * 0.25)

    def test_single_trial_flags_empty_hypothesis(self, scenario_small):
        pfa, pmd = run_trials(pathloss_plan(scenario_small, n=1), 1.0)
        assert (pfa.n_conditioning == 0) != (pmd.n_conditioning == 0)
        empty = pfa if pfa.n_conditioning == 0 else pmd
        assert math.isnan(empty.value)

    def test_partition_independence(self, scenario_small, monkeypatch):
        plan = pathloss_plan(scenario_small, n=5000)
        ref = run_trials(plan, 1e-5)
        for chunk in (1, 7, 499, 5000):
            monkeypatch.setattr(mc, "_default_chunk", lambda plan, chunk=chunk: chunk)
            assert run_trials(plan, 1e-5) == ref

    def test_worker_independence(self, scenario_small):
        plan = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, n=4000)
        assert run_trials(plan, 1.0, workers=2) == run_trials(plan, 1.0, workers=1)

    def test_engine_matches_accepts_rule(self, scenario_small):
        # roc_sweep counts acceptances with searchsorted; run_trials calls accepts
        eps = 1.2e-5
        plan = pathloss_plan(scenario_small, n=4000, seed=9)
        ts = empirical_distribution(plan, Hypothesis.H1, 4000)
        n_accepts = int(np.count_nonzero(accepts(ts, eps)))
        assert n_accepts == int(np.searchsorted(ts, eps, side="left"))


class TestRocSweep:
    def test_single_point_matches_run_trials(self, scenario_small):
        eps = 1.5e-5
        plan = pathloss_plan(scenario_small, n=20000)
        pfa, pmd = run_trials(plan, eps)
        curve = roc_sweep(plan, [eps])
        assert curve.pfa[0] == pytest.approx(pfa.value, abs=1e-15)
        assert curve.pd[0] == pytest.approx(1.0 - pmd.value, abs=1e-15)

    def test_endpoints(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=20000)
        curve = roc_sweep(plan, [0.0, 1e12])
        assert (curve.pfa[0], curve.pd[0]) == (1.0, 1.0)
        assert (curve.pfa[-1], curve.pd[-1]) == (0.0, 0.0)

    def test_comonotone(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=30000)
        grid = np.geomspace(1e-7, 1e-4, 25)
        curve = roc_sweep(plan, grid)
        assert np.all(np.diff(curve.pfa) <= 0)
        assert np.all(np.diff(curve.pd) <= 0)

    def test_points_property(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=1000)
        curve = roc_sweep(plan, [1e-6, 1e-5])
        pts = curve.points
        assert len(pts) == 2 and pts[0][0] == 1e-6

    def test_grid_must_increase(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=100)
        with pytest.raises(ValueError):
            roc_sweep(plan, [2.0, 1.0])

    def test_partition_independence(self, scenario_small, monkeypatch):
        plan = cir_plan(scenario_small, Feature.CIR_PHASE, n=3000)
        grid = np.geomspace(1e-3, 3.0, 10)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 3000)
        a = roc_sweep(plan, grid)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 271)
        b = roc_sweep(plan, grid)
        np.testing.assert_array_equal(a.pfa, b.pfa)
        np.testing.assert_array_equal(a.pd, b.pd)


class TestEmpiricalDistribution:
    def test_sorted_output(self, scenario_small):
        plan = pathloss_plan(scenario_small)
        ts = empirical_distribution(plan, Hypothesis.H0, 5000)
        assert np.all(np.diff(ts) >= 0)

    def test_pathloss_h0_is_folded_normal(self, scenario_small):
        plan = pathloss_plan(scenario_small, seed=3)
        n = 2 * 10**5
        ts = empirical_distribution(plan, Hypothesis.H0, n)
        params = FoldedNormalParams(0.0, scenario_small.noise_sigma)
        cdf = np.array([folded_normal_cdf(x, params) for x in ts])
        ks = np.max(np.abs(cdf - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 0.005

    def test_cir_magnitude_h0_is_rayleigh_when_pinned(self, scenario_small):
        plan = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, seed=77,
                        refade_alice=False)
        n = 2 * 10**5
        ts = empirical_distribution(plan, Hypothesis.H0, n)
        s = rayleigh_sigma(scenario_small.noise_sigma)
        cdf = 1.0 - np.exp(-(ts**2) / (2 * s * s))
        ks = np.max(np.abs(cdf - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 0.005

    def test_cir_phase_noiseless_match(self, scenario_small):
        quiet = replace(scenario_small, lq_db=400.0)  # noise variance underflows to 0
        plan = cir_plan(quiet, Feature.CIR_PHASE, refade_alice=False)
        ts = empirical_distribution(plan, Hypothesis.H0, 2000)
        assert np.all(ts == 0.0)

    def test_h1_differs_from_h0(self, scenario):
        # at the shipped link quality the pathloss contrast dwarfs the noise
        plan = pathloss_plan(scenario)
        h0 = empirical_distribution(plan, Hypothesis.H0, 2000)
        h1 = empirical_distribution(plan, Hypothesis.H1, 2000)
        assert h1.mean() > 10 * h0.mean()

    def test_refade_widens_h0_magnitude(self, scenario_small):
        base = dict(seed=5)
        pinned = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, refade_alice=False, **base)
        refade = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, refade_alice=True, **base)
        ts_pin = empirical_distribution(pinned, Hypothesis.H0, 5000)
        ts_ref = empirical_distribution(refade, Hypothesis.H0, 5000)
        assert ts_ref.mean() > 10 * ts_pin.mean()

    def test_direct_baseline_magnitude_scale(self, scenario_small):
        # direct link: zeta - gt = c' - gt + n, conditioned on the enrolled gt
        from rispla.mc import _fingerprint, decode

        plan = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, ris=False, seed=11)
        gt = _fingerprint(plan, decode(plan, 0, 1))
        ts = empirical_distribution(plan, Hypothesis.H0, 10**5)
        expected_power = 1.0 + abs(gt) ** 2 + scenario_small.noise_variance
        assert np.mean(ts**2) == pytest.approx(expected_power, rel=0.05)

    def test_bad_sample_count(self, scenario_small):
        plan = pathloss_plan(scenario_small)
        with pytest.raises(ValueError):
            empirical_distribution(plan, Hypothesis.H0, 0)
