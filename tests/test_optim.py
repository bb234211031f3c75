"""Phase-shift search: oracle comparisons, guards, and determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import RedecodeSpy

from rispla import mc, optim
from rispla.auth import Feature, pmd_cir_phase, threshold_for_pfa
from rispla.channel import PerElement, incidence_angle
from rispla.mc import Hypothesis, TrialPlan, empirical_distribution
from rispla.optim import (
    EXHAUSTIVE_CANDIDATE_LIMIT,
    InfeasibleGridError,
    SearchBudgetError,
    Strategy,
    default_gradient_grid,
    optimize_gradient,
    optimize_phase_matrix,
)


def reference_pathloss(sc, tx_pos, gradient: float):
    """The scalar reflection pathloss, libm only (math.asin, math.sin), in the order the
    array code keeps; None when the gradient leaves no propagating reflection."""
    tx = np.asarray(tx_pos, dtype=float)
    d_i = float(np.linalg.norm(tx - sc.ris_pos))
    r = float(np.linalg.norm(sc.bob_pos - sc.ris_pos))
    theta_i = incidence_angle(tx, sc)
    s = math.sin(theta_i) + sc.wavelength * gradient / (2.0 * math.pi * sc.refractive_index)
    if abs(s) > 1.0:
        return None
    theta_r = math.asin(s)
    u = (math.pi * sc.element_b / sc.wavelength) * (math.sin(theta_i) - math.sin(theta_r))
    if abs(u) < 1e-8:
        sinc_sq = 1.0 - u * u / 3.0
    else:
        sinc = math.sin(u) / u
        sinc_sq = sinc * sinc
    ab = sc.element_a * sc.element_b
    return (sc.tx_gain * sc.rx_gain / (4.0 * math.pi) ** 2
            * (ab / (d_i * r)) ** 2
            * math.cos(theta_i) ** 2
            * sinc_sq)


def reference_pmd(eps: float, sigma: float, pl_a: float, pl_e: float) -> float:
    """The scalar folded-normal CDF at eps, with math.erf."""
    if eps < 0.0:
        return 0.0
    a = (eps + (pl_e - pl_a)) / (sigma * math.sqrt(2.0))
    b = (eps - (pl_e - pl_a)) / (sigma * math.sqrt(2.0))
    return min(1.0, max(0.0, 0.5 * (math.erf(a) + math.erf(b))))


def reference_gradient_search(sc, eps: float, grid):
    """Point-by-point search: (trace, skipped, (best gradient, best pmd)), first minimum."""
    trace, skipped, best = [], [], (None, math.inf)
    for g in np.asarray(grid, dtype=float).tolist():
        pl_a = reference_pathloss(sc, sc.alice_pos, g)
        pl_e = reference_pathloss(sc, sc.eve_pos, g)
        if pl_a is None or pl_e is None:
            skipped.append(g)
            continue
        pmd = reference_pmd(eps, sc.noise_sigma, pl_a, pl_e)
        trace.append((0, g, pmd))
        if pmd < best[1]:
            best = (g, pmd)
    return trace, skipped, best


class TestOptimizeGradient:
    def test_colocated_attacker_flat_objective(self, scenario):
        sc = replace(scenario, eve_pos=scenario.alice_pos)
        sigma = sc.noise_sigma
        eps = threshold_for_pfa(0.05, sigma)
        res = optimize_gradient(sc, eps, np.linspace(0, 10, 50))
        expected = math.erf(eps / (sigma * math.sqrt(2)))
        pmds = [row[2] for row in res.trace]
        assert res.best_pmd == pytest.approx(expected, abs=1e-12)
        assert max(pmds) - min(pmds) < 1e-12
        # first minimizer wins ties on a flat landscape
        assert res.best_profile.gradient == 0.0

    def test_matches_analytical_objective(self, scenario):
        # every row, skip and optimum equals the scalar libm formula bit for bit; numpy's
        # SIMD arcsin in place of math.asin breaks the default grid on AVX-512 hosts
        eps = threshold_for_pfa(0.05, scenario.noise_sigma)
        grids = {
            "default": default_gradient_grid(scenario),
            "negative": np.linspace(-300.0, 300.0, 2001),
            "only-eve-evanescent": np.linspace(-1100.0, -500.0, 3001),
            "only-alice-evanescent": np.linspace(100.0, 700.0, 3001),
            "zero": np.array([-1e-3, -1e-9, 0.0, 1e-9, 1e-3]),
        }
        for name, grid in grids.items():
            trace, skipped, best = reference_gradient_search(scenario, eps, grid)
            res = optimize_gradient(scenario, eps, grid)
            assert res.trace == trace, name
            assert res.skipped == skipped, name
            assert (res.best_profile.gradient, res.best_pmd) == best, name
            assert res.evaluations == len(trace), name
        # the edge grids hold points where exactly one transmitter is evanescent
        for name, tx, other in [("only-eve-evanescent", "eve_pos", "alice_pos"),
                                ("only-alice-evanescent", "alice_pos", "eve_pos")]:
            assert any(reference_pathloss(scenario, getattr(scenario, tx), g) is None
                       and reference_pathloss(scenario, getattr(scenario, other), g) is not None
                       for g in grids[name].tolist()), name

    def test_reaches_zero_on_default_span(self, scenario):
        eps = threshold_for_pfa(0.05, scenario.noise_sigma)
        res = optimize_gradient(scenario, eps, default_gradient_grid(scenario, 2000))
        assert res.best_pmd < 1e-6

    def test_best_bounds_trace(self, scenario):
        eps = threshold_for_pfa(0.2, scenario.noise_sigma)
        res = optimize_gradient(scenario, eps, np.linspace(0, 40, 300))
        assert all(pmd >= res.best_pmd for _, _, pmd in res.trace)
        assert res.evaluations == len(res.trace)

    def test_evanescent_points_skipped(self, scenario):
        huge = 2.0 * 2 * math.pi / scenario.wavelength
        grid = [0.0, 5.0, huge]
        res = optimize_gradient(scenario, 1e-5, grid)
        assert res.skipped == [huge]
        assert res.evaluations == 2

    def test_all_evanescent_raises(self, scenario):
        huge = 2.0 * 2 * math.pi / scenario.wavelength
        with pytest.raises(InfeasibleGridError):
            optimize_gradient(scenario, 1e-5, [huge, 2 * huge])

    def test_empty_grid_rejected(self, scenario):
        with pytest.raises(ValueError):
            optimize_gradient(scenario, 1e-5, [])

    def test_deterministic(self, scenario):
        eps = threshold_for_pfa(0.05, scenario.noise_sigma)
        grid = np.linspace(0, 30, 100)
        a = optimize_gradient(scenario, eps, grid)
        b = optimize_gradient(scenario, eps, grid)
        assert a.best_pmd == b.best_pmd
        assert a.best_profile == b.best_profile
        assert a.trace == b.trace


class TestOptimizePhaseMatrix:
    def test_single_element_strategies_agree(self, scenario):
        sc = replace(scenario, n_elements=1, lq_db=20.0)
        kw = dict(epsilon=0.3, levels=8, budget_trials=10**6, rng_seed=5, eval_trials=5000)
        ex = optimize_phase_matrix(sc, strategy=Strategy.EXHAUSTIVE, **kw)
        co = optimize_phase_matrix(sc, strategy=Strategy.COORDINATE, **kw)
        np.testing.assert_array_equal(ex.best_profile.phases, co.best_profile.phases)
        assert ex.best_pmd == co.best_pmd

    def test_coordinate_never_beats_exhaustive(self, scenario):
        sc = replace(scenario, n_elements=2, lq_db=20.0)
        for seed in (0, 1, 2):
            kw = dict(epsilon=0.05, levels=4, budget_trials=10**6, rng_seed=seed,
                      eval_trials=5000)
            ex = optimize_phase_matrix(sc, strategy=Strategy.EXHAUSTIVE, **kw)
            co = optimize_phase_matrix(sc, strategy=Strategy.COORDINATE, **kw)
            assert co.best_pmd >= ex.best_pmd
            assert len(ex.trace) == 16  # the full candidate set

    def test_exhaustive_is_global_minimum_of_candidate_set(self, scenario):
        sc = replace(scenario, n_elements=2, lq_db=20.0)
        ex = optimize_phase_matrix(sc, epsilon=0.05, levels=4, strategy=Strategy.EXHAUSTIVE,
                                   budget_trials=10**6, rng_seed=2, eval_trials=5000)
        assert ex.best_pmd == min(pmd for _, _, pmd in ex.trace)

    def test_exhaustive_rows_single_element(self, scenario):
        sc = replace(scenario, n_elements=1, lq_db=20.0)
        res = optimize_phase_matrix(sc, epsilon=0.3, levels=4, strategy=Strategy.EXHAUSTIVE,
                                    budget_trials=10**6, rng_seed=5, eval_trials=2000)
        values = [2.0 * math.pi * k / 4 for k in range(4)]
        assert [row[:2] for row in res.trace] == [(1, v) for v in values]
        for _, value, pmd in res.trace:
            assert pmd == engine_pmd(sc, [value], 0.3, 5, 2000)

    def test_exhaustive_rows_product_order(self, scenario):
        sc = replace(scenario, n_elements=2, lq_db=20.0)
        levels = 3
        res = optimize_phase_matrix(sc, epsilon=0.3, levels=levels,
                                    strategy=Strategy.EXHAUSTIVE, budget_trials=10**6,
                                    rng_seed=5, eval_trials=2000)
        assert [row[:2] for row in res.trace] == [(i, float(i)) for i in range(levels**2)]
        assert all(type(row[0]) is int and type(row[1]) is float for row in res.trace)
        for idx, (_, _, pmd) in enumerate(res.trace):
            digits = divmod(idx, levels)  # base-levels digits, first element most significant
            phases = [2.0 * math.pi * k / levels for k in digits]
            assert pmd == engine_pmd(sc, phases, 0.3, 5, 2000), idx
        assert res.evaluations == levels**2

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_ties_keep_first_candidate(self, scenario, strategy):
        # at a zero threshold every candidate misses nothing: the all-zero one comes first
        sc = replace(scenario, n_elements=2, lq_db=20.0)
        res = optimize_phase_matrix(sc, epsilon=0.0, levels=4, strategy=strategy,
                                    budget_trials=10**6, rng_seed=5, eval_trials=500)
        assert {pmd for _, _, pmd in res.trace} == {0.0} and len(res.trace) > 1
        np.testing.assert_array_equal(res.best_profile.phases, [0.0, 0.0])

    def test_candidate_guard(self, scenario):
        with pytest.raises(SearchBudgetError) as err:
            optimize_phase_matrix(scenario, epsilon=0.1, levels=4,
                                  strategy=Strategy.EXHAUSTIVE, budget_trials=10**9)
        assert f"needs 4^{scenario.n_elements} candidate evaluations" in str(err.value)
        assert 4**scenario.n_elements > EXHAUSTIVE_CANDIDATE_LIMIT

    def test_exhaustive_trial_budget_guard(self, scenario):
        sc = replace(scenario, n_elements=2, lq_db=20.0)
        with pytest.raises(SearchBudgetError) as err:
            optimize_phase_matrix(sc, epsilon=0.1, levels=4, strategy=Strategy.EXHAUSTIVE,
                                  budget_trials=20_000, eval_trials=5000)
        assert f"needs {16 * 5000} trials, budget is 20000" in str(err.value)

    def test_budget_must_cover_one_evaluation(self, scenario):
        with pytest.raises(SearchBudgetError):
            optimize_phase_matrix(scenario, epsilon=0.1, budget_trials=100, eval_trials=5000)

    def test_coordinate_budget_exhaustion_returns_best_seen(self, scenario):
        sc = replace(scenario, n_elements=4, lq_db=20.0)
        res = optimize_phase_matrix(sc, epsilon=0.05, levels=8, strategy=Strategy.COORDINATE,
                                    budget_trials=10 * 2000, rng_seed=1, eval_trials=2000)
        assert res.evaluations == 10
        assert res.best_pmd == min(pmd for _, _, pmd in res.trace)

    def test_coordinate_sweep_minima_monotone(self, scenario):
        sc = replace(scenario, n_elements=3, lq_db=20.0)
        levels = 6
        res = optimize_phase_matrix(sc, epsilon=0.05, levels=levels,
                                    strategy=Strategy.COORDINATE,
                                    budget_trials=10**6, rng_seed=4, eval_trials=2000)
        pmds = [pmd for _, _, pmd in res.trace]
        sweep_minima = [min(pmds[i:i + levels]) for i in range(0, len(pmds), levels)]
        assert all(b <= a + 1e-15 for a, b in zip(sweep_minima, sweep_minima[1:]))

    def test_objective_reproducible_at_best_profile(self, scenario):
        sc = replace(scenario, n_elements=2, lq_db=20.0)
        res = optimize_phase_matrix(sc, epsilon=0.05, levels=4, strategy=Strategy.COORDINATE,
                                    budget_trials=10**6, rng_seed=2, eval_trials=5000)
        plan = TrialPlan(n_trials=5000, master_seed=2, feature=Feature.CIR_PHASE,
                         scenario=sc, profile=res.best_profile)
        samples = empirical_distribution(plan, Hypothesis.H1)
        pmd = np.searchsorted(samples, 0.05, side="left") / 5000
        assert pmd == res.best_pmd

    def test_deterministic(self, scenario):
        sc = replace(scenario, n_elements=2, lq_db=20.0)
        kw = dict(epsilon=0.05, levels=4, strategy=Strategy.COORDINATE,
                  budget_trials=10**6, rng_seed=3, eval_trials=2000)
        a = optimize_phase_matrix(sc, **kw)
        b = optimize_phase_matrix(sc, **kw)
        assert a.best_pmd == b.best_pmd
        np.testing.assert_array_equal(a.best_profile.phases, b.best_profile.phases)
        assert a.trace == b.trace

    def test_levels_validation(self, scenario):
        with pytest.raises(ValueError):
            optimize_phase_matrix(scenario, epsilon=0.1, levels=1)

    def test_many_levels_allocate_per_candidate(self, scenario):
        # a budget of 2 evaluations at 10^6 levels: the phases are computed per candidate,
        # not held in a list of all levels (32 MB of Python floats at 10^6)
        sc = replace(scenario, n_elements=4, lq_db=20.0)
        tracemalloc.start()
        try:
            res = optimize_phase_matrix(sc, epsilon=0.05, levels=10**6, budget_trials=2 * 1000,
                                        rng_seed=1, eval_trials=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.evaluations == 2
        assert [value for _, value, _ in res.trace] == [0.0, 2.0 * math.pi / 10**6]
        assert peak < 4 * 2**20


def engine_pmd(sc, phases, eps: float, seed: int, n: int) -> float:
    """Missed detection of one profile from a fresh engine run: sorted H1 draws, then a lookup."""
    plan = TrialPlan(n_trials=n, master_seed=seed, feature=Feature.CIR_PHASE,
                     scenario=sc, profile=PerElement(np.asarray(phases, dtype=float)))
    samples = empirical_distribution(plan, Hypothesis.H1)
    return np.searchsorted(samples, eps, side="left") / n


def coordinate_profiles(trace, n_elements: int, levels: int):
    """Replay a complete coordinate search: the profile behind each trace row."""
    current = [0.0] * n_elements
    for start in range(0, len(trace), levels):
        sweep = trace[start:start + levels]
        elem = sweep[0][0] - 1
        for _, value, _ in sweep:
            yield current[:elem] + [value] + current[elem + 1:]
        current[elem] = min(sweep, key=lambda row: row[2])[1]  # first minimum, as argmin


class TestDecodeOnceObjective:
    """The search decodes its draws once and scores every candidate on them."""

    def test_coordinate_trace_matches_engine(self, scenario):
        sc = replace(scenario, n_elements=3, lq_db=20.0)
        levels, n = 6, 2000
        res = optimize_phase_matrix(sc, epsilon=0.05, levels=levels,
                                    strategy=Strategy.COORDINATE, budget_trials=10**6,
                                    rng_seed=4, eval_trials=n)
        assert len(res.trace) % levels == 0 and len({row[2] for row in res.trace}) > 1
        for row, phases in zip(res.trace, coordinate_profiles(res.trace, 3, levels)):
            assert row[2] == engine_pmd(sc, phases, 0.05, 4, n), row

    def test_full_panel_spanning_two_chunks_matches_engine(self, scenario):
        n, levels = 5000, 4  # two or more default chunks at 256 elements
        res = optimize_phase_matrix(scenario, epsilon=0.3, levels=levels,
                                    strategy=Strategy.COORDINATE, budget_trials=3 * n,
                                    rng_seed=11, eval_trials=n)
        assert len(res.trace) == 3 and any(row[1] != 0.0 for row in res.trace)
        profiles = coordinate_profiles(res.trace, scenario.n_elements, levels)
        for row, phases in zip(res.trace, profiles):
            assert row[2] == engine_pmd(scenario, phases, 0.3, 11, n), row

    def test_trace_does_not_depend_on_chunk_size(self, scenario, monkeypatch):
        n, traces = 3000, []
        for chunk in (271, 10**6):  # 12 chunks, the last short; one chunk
            monkeypatch.setattr(mc, "_default_chunk", lambda plan, chunk=chunk: chunk)
            res = optimize_phase_matrix(scenario, epsilon=0.3, levels=4,
                                        strategy=Strategy.COORDINATE, budget_trials=8 * n,
                                        rng_seed=7, eval_trials=n)
            assert res.evaluations == 8
            traces.append(res.trace)
        assert len({row[2] for row in traces[0]}) > 1
        assert traces[0] == traces[1]

    def test_search_decodes_once(self, scenario, monkeypatch):
        n = 5000
        plan = TrialPlan(n_trials=n, master_seed=1, feature=Feature.CIR_PHASE,
                         scenario=scenario, profile=PerElement(np.zeros(scenario.n_elements)))
        chunks = -(-n // mc._default_chunk(plan))
        assert chunks >= 2  # the draws span several default chunks at 256 elements
        calls, redecodes = [], RedecodeSpy(monkeypatch)
        real = mc._uniform_blocks

        def counting(*args):
            calls.append((redecodes.running, args))
            return real(*args)

        monkeypatch.setattr(mc, "_uniform_blocks", counting)
        for evaluations in (3, 6):  # twice the evaluations decode no more
            calls.clear()
            redecodes.batches.clear()
            res = optimize_phase_matrix(scenario, epsilon=0.3, levels=4,
                                        strategy=Strategy.COORDINATE,
                                        budget_trials=evaluations * n, rng_seed=1,
                                        eval_trials=n)
            assert res.evaluations == evaluations
            # each chunk's trials and the enrollment block, and apart from them one block per
            # undecided trial, re-decoded from its counter position
            assert sum(not running for running, _ in calls) == chunks + 1
            assert len(calls) == chunks + 1 + len(redecodes.trials)

    def test_coordinate_pass_scores_exactly_only_inside_the_cone(self, scenario, monkeypatch):
        # one pass at the C07 shape: each candidate updates the held cascade by the elements
        # it changes, and the einsum cascade is summed only for the trials that the cone test
        # leaves undecided, at most once per candidate
        sc = replace(scenario, n_elements=8, lq_db=20.0)
        levels, n = 16, 2000
        evaluations = levels + 7 * (levels - 1)
        rows, held = [], []
        real_cascade, real_draws = mc._cascade, optim.attacker_draws

        def cascade(h, g, phases):
            rows.append(h.shape[0])
            return real_cascade(h, g, phases)

        def holding(*args):
            held.append(real_draws(*args))
            return held[-1]

        monkeypatch.setattr(mc, "_cascade", cascade)
        monkeypatch.setattr(optim, "attacker_draws", holding)
        res = optimize_phase_matrix(sc, epsilon=1e-3, levels=levels,
                                    budget_trials=evaluations * n, rng_seed=3, eval_trials=n)
        monkeypatch.undo()
        assert res.evaluations == evaluations and len(rows) <= evaluations
        assert sum(rows) <= 20  # of 121 * 2000 trial scores
        profiles = list(coordinate_profiles(res.trace, 8, levels))
        evaluated = list(dict.fromkeys(map(tuple, profiles)))  # in order, without cache hits
        assert len(evaluated) == evaluations
        changed = [sum(a != b for a, b in zip(p, q)) for p, q in zip(evaluated, evaluated[1:])]
        # N elements summed once, then one or two per candidate
        assert held[0].updates == 8 + sum(changed) and set(changed) <= {1, 2}
        for row, phases in list(zip(res.trace, profiles))[::9]:
            assert row[2] == engine_pmd(sc, phases, 1e-3, 3, n), row

    def test_largest_search_under_the_limit_decodes(self, scenario, monkeypatch):
        # 256 elements hold 16 * 256 + 65 bytes a trial: 258 048 trials fit in the limit
        # (test_cli refuses 258 049); the hold is stubbed, as it would take 1 GiB
        held = mc._HeldSearch.nbytes
        assert held(258_048, 256) <= mc._HELD_LIMIT < held(258_049, 256)

        class Decoding(Exception):
            pass

        def decoding(*args):
            raise Decoding

        monkeypatch.setattr(mc._HeldSearch, "__init__", decoding)
        with pytest.raises(Decoding):
            optimize_phase_matrix(scenario, epsilon=0.1, budget_trials=10**6, eval_trials=258_048)


class TestPhaseObjectiveIsFlat:
    """Under the current model the attacker's observed phase is uniform about the fingerprint's
    whatever the profile, so every profile's phase missed detection is eps / pi: the phase
    search ranks candidates by sampling noise alone."""

    def test_missed_detection_is_eps_over_pi_for_every_profile(self, scenario):
        sc = replace(scenario, n_elements=8, lq_db=20.0)
        profiles = [np.zeros(8), np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 8)]
        epsilons = [0.1, 1.0, 3.0]
        for seed in (3, 4):
            plans = [TrialPlan(n_trials=200_000, master_seed=seed, feature=Feature.CIR_PHASE,
                               scenario=sc, profile=PerElement(phases)) for phases in profiles]
            for counts in mc.sweep_trials(plans, [epsilons] * len(plans),
                                          hypothesis=Hypothesis.H1):
                for k, eps in enumerate(epsilons):
                    pmd, p = counts.missed_detection(k), pmd_cir_phase(eps)
                    se = math.sqrt(p * (1.0 - p) / pmd.n_conditioning)
                    assert abs(pmd.value - p) <= 4.0 * se, (seed, eps, pmd.value, p)
