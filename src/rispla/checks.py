"""Closed forms against the Monte-Carlo engine: acceptance criteria C01-C05.

CHECKS holds one (name, fn) entry per criterion, with fn(scenario, trials)
returning (ok, detail). `rispla validate` runs every entry at --trials; the
acceptance suite runs them at 1e6 trials and adds its own time limits.
Grids, seeds and tolerances are fixed here, so both agree.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace

import numpy as np

from .auth import (
    Feature,
    count_accepted,
    pfa_cir_magnitude,
    pfa_pathloss,
    pmd_pathloss,
    rayleigh_sigma,
    threshold_for_pfa,
    threshold_for_pfa_magnitude,
)
from .channel import PerElement, ScalarGradient, Scenario, pathloss_pair
from .mc import Hypothesis, TrialPlan, empirical_distribution, run_trials, sweep_trials
from .specfun import FoldedNormalParams, folded_normal_moments

__all__ = ["CHECKS"]


def _count(n: int) -> str:
    """1e6 for a power of ten, else the plain number."""
    k = round(math.log10(n))
    return f"1e{k}" if 10**k == n else str(n)


def _deviation(est, p: float) -> float:
    """|estimate - p| in binomial standard errors; inf when no trial conditions it."""
    if est.n_conditioning == 0:
        return math.inf
    se = math.sqrt(p * (1 - p) / est.n_conditioning)
    return abs(est.value - p) / se


def pfa_closed_form(scenario: Scenario, trials: int):
    """C01: empirical pathloss false alarm at the Neyman-Pearson threshold."""
    targets = (0.9, 0.5, 0.2, 0.05, 1e-3)
    lqs = (12.0, 0.0, -9.5, -22.0)  # sigma from 0.25 to ~12.6
    worst = 0.0
    n_pairs = 0
    for i, lq in enumerate(lqs):
        sc = replace(scenario, lq_db=lq)
        sigma = sc.noise_sigma
        for j, p in enumerate(targets):
            eps = threshold_for_pfa(p, sigma)
            plan = TrialPlan(n_trials=trials, master_seed=100 + 10 * i + j,
                             feature=Feature.PATHLOSS, scenario=sc,
                             profile=ScalarGradient(0.0))
            pfa, _ = run_trials(plan, eps)
            worst = max(worst, _deviation(pfa, p))
            n_pairs += 1
    return (worst <= 3.0 and n_pairs == 20,
            f"{n_pairs} (eps,sigma) pairs, {_count(trials)} trials each, max deviation "
            f"{worst:.2f} std errors")


def neyman_pearson_round_trip(scenario: Scenario, trials: int):
    """C02: the threshold for a false-alarm target gives back that target."""
    worst = 0.0
    for p in np.geomspace(1e-6, 1.0, 25):
        for sigma in (0.3, 1.0, 4.0):
            worst = max(worst, abs(pfa_pathloss(threshold_for_pfa(p, sigma), sigma) - p))
    return (worst <= 1e-9,
            f"max |pfa(threshold(p)) - p| = {worst:.2e} on log grid [1e-6, 1]")


def pmd_closed_form(scenario: Scenario, trials: int):
    """C03: empirical pathloss missed detection against the folded normal."""
    worst = 0.0
    n_triples = 0
    ratios_targets = ((0.5, 0.05), (1.5, 0.2), (2.5, 0.05), (3.5, 0.2), (5.0, 0.05))
    for i, gradient in enumerate((0.0, 6.0, 9.0, 11.0)):
        pl_a, pl_e = pathloss_pair(scenario, gradient)
        for j, (ratio, target) in enumerate(ratios_targets):
            sigma = abs(pl_e - pl_a) / ratio
            lq = -10.0 * math.log10(sigma**2 / scenario.tx_power_w)
            sc = replace(scenario, lq_db=lq)
            eps = threshold_for_pfa(target, sc.noise_sigma)
            expected = pmd_pathloss(eps, sc.noise_sigma, pl_a, pl_e)
            plan = TrialPlan(n_trials=trials, master_seed=300 + 10 * i + j,
                             feature=Feature.PATHLOSS, scenario=sc,
                             profile=ScalarGradient(gradient))
            _, pmd = run_trials(plan, eps)
            worst = max(worst, _deviation(pmd, expected))
            n_triples += 1
    rng = np.random.default_rng(31)
    draws = np.abs(2.0 + rng.standard_normal(10**6))
    mean, var = folded_normal_moments(FoldedNormalParams(2.0, 1.0))
    moment_err = max(abs(draws.mean() - mean) / mean, abs(draws.var() - var) / var)
    return (worst <= 3.0 and n_triples == 20 and moment_err <= 0.01,
            f"{n_triples} (eps,sigma,dPL) triples, max deviation {worst:.2f} std errors; "
            f"moments within {moment_err:.3%} of 1e6-draw sample")


def rayleigh_magnitude_false_alarm(scenario: Scenario, trials: int):
    """C04: pinned magnitude statistic under H0 is Rayleigh, on an 8-element 20 dB panel."""
    sc = replace(scenario, n_elements=8, lq_db=20.0)
    plan = TrialPlan(n_trials=1, master_seed=77, feature=Feature.CIR_MAGNITUDE,
                     scenario=sc, profile=PerElement(np.zeros(8)),
                     refade_alice=False)
    ts = empirical_distribution(plan, Hypothesis.H0, trials)
    sigma_r = rayleigh_sigma(sc.noise_sigma)
    worst = 0.0
    for q in np.linspace(0.05, 0.95, 10):
        eps = threshold_for_pfa_magnitude(1.0 - q, sc.noise_sigma)  # Rayleigh quantile
        expected = pfa_cir_magnitude(eps, sigma_r)
        emp = 1.0 - count_accepted(ts, eps) / trials
        se = math.sqrt(expected * (1 - expected) / trials)
        worst = max(worst, abs(emp - expected) / se)
    cdf = 1.0 - np.exp(-(ts**2) / (2 * sigma_r**2))
    ks = float(np.max(np.abs(cdf - (np.arange(1, trials + 1) - 0.5) / trials)))
    return (worst <= 3.0 and ks < 0.005,
            f"10 thresholds within {worst:.2f} std errors, KS = {ks:.4f} at "
            f"{_count(trials)} samples")


def false_alarm_phase_invariance(scenario: Scenario, trials: int):
    """C05: false alarm does not move with the panel's phase profile.

    Runs at a tenth of `trials` (at least 1e4) per estimate, on an 8-element
    panel with the enrollment channel pinned: the regime of the closed-form
    Rayleigh false alarm.
    """
    n = max(trials // 10, 10_000)
    no_phase = all(set(inspect.signature(fn).parameters) == {"epsilon", "sigma"}
                   for fn in (pfa_pathloss, pfa_cir_magnitude))
    sc8 = replace(scenario, n_elements=8)
    rng = np.random.default_rng(7)
    profiles = [PerElement(rng.uniform(0, 2 * math.pi, 8)) for _ in range(2)]
    lq_scenarios = [replace(sc8, lq_db=float(lq)) for lq in np.linspace(5.0, 50.0, 10)]
    epsilons = [threshold_for_pfa_magnitude(0.5, sc.noise_sigma) for sc in lq_scenarios]
    pfas = []  # per profile: the false alarm at each link quality, from one decode
    for k, prof in enumerate(profiles):
        plans = [TrialPlan(n_trials=n, master_seed=500 + k,
                           feature=Feature.CIR_MAGNITUDE, scenario=sc,
                           profile=prof, refade_alice=False)
                 for sc in lq_scenarios]
        pfas.append([pfa for pfa, _ in sweep_trials(plans, epsilons)])
    worst = 0.0
    for a, b in zip(*pfas):
        se = math.hypot(a.half_width_95, b.half_width_95) / 1.96
        worst = max(worst, abs(a.value - b.value) / se)
    signatures = ("analytical signatures carry no phase" if no_phase
                  else "an analytical false alarm takes a phase argument")
    return (no_phase and worst <= 3.0,
            f"{signatures}; empirical gap at most {worst:.2f} combined std errors over "
            f"a 10-point LQ grid")


CHECKS = (
    ("C01 pfa-closed-form", pfa_closed_form),
    ("C02 neyman-pearson-round-trip", neyman_pearson_round_trip),
    ("C03 pmd-closed-form", pmd_closed_form),
    ("C04 rayleigh-magnitude-false-alarm", rayleigh_magnitude_false_alarm),
    ("C05 false-alarm-phase-invariance", false_alarm_phase_invariance),
)
