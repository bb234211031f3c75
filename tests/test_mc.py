"""Monte-Carlo engine: determinism, closed-form agreement, distribution checks."""

import math
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_box_muller

from rispla import mc
from rispla.auth import (
    Feature,
    accepts,
    pfa_cir_magnitude,
    pfa_pathloss,
    pmd_pathloss,
    rayleigh_sigma,
    threshold_for_pfa,
)
from rispla.channel import PerElement, ScalarGradient
from rispla.mc import (
    ErrorEstimate,
    Hypothesis,
    TrialPlan,
    decode,
    empirical_distribution,
    roc_sweep,
    run_trials,
    score,
    sweep_trials,
)
from rispla.optim import default_gradient_grid, optimize_gradient, optimize_phase_matrix


def pathloss_plan(scenario, *, n=10**5, seed=42, gradient=0.0, **kw):
    return TrialPlan(n_trials=n, master_seed=seed, feature=Feature.PATHLOSS,
                     scenario=scenario, profile=ScalarGradient(gradient), **kw)


def cir_plan(scenario, feature, *, n=10**4, seed=7, phases=None, **kw):
    phases = np.zeros(scenario.n_elements) if phases is None else phases
    return TrialPlan(n_trials=n, master_seed=seed, feature=feature,
                     scenario=scenario, profile=PerElement(phases), **kw)


def recording_pool(monkeypatch) -> list:
    """Swap mc's thread pool for one that records each pool's size; returns the record."""
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
    return started


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

    def test_worker_independence(self, scenario_small, monkeypatch):
        plan = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, n=4000)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 3 chunks
        assert run_trials(plan, 1.0, workers=2) == run_trials(plan, 1.0, workers=1)

    def test_workers_capped_at_cpu_count(self, scenario_small, monkeypatch):
        started = recording_pool(monkeypatch)
        plan = pathloss_plan(scenario_small, n=2000)
        ref = run_trials(plan, 1e-5)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 500)  # 4 chunks
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        assert run_trials(plan, 1e-5, workers=100_000) == ref
        assert started == [3]
        for cpus in (1, None):  # one CPU, or a count the OS cannot tell: no pool
            monkeypatch.setattr(mc.os, "cpu_count", lambda cpus=cpus: cpus)
            assert run_trials(plan, 1e-5, workers=100_000) == ref
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1000)  # 2 chunks
        assert run_trials(plan, 1e-5, workers=100_000) == ref
        assert started == [3, 2]

    def test_one_chunk_starts_no_pool(self, scenario_small, monkeypatch):
        started = recording_pool(monkeypatch)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        plan = pathloss_plan(scenario_small, n=2000)  # below one default chunk
        assert run_trials(plan, 1e-5, workers=2) == run_trials(plan, 1e-5)
        assert started == []

    def test_raising_chunk_cancels_the_rest(self, scenario_small, monkeypatch):
        # chunk 0 raises at once while chunk 1 sleeps: the chunks still queued never start
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 100)  # 8 chunks
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        started = []
        real = mc.decode

        def failing(plan, first_block, n_blocks):
            started.append(first_block)
            if first_block == 1:
                raise RuntimeError("chunk 0 failed")
            time.sleep(0.2)
            return real(plan, first_block, n_blocks)

        monkeypatch.setattr(mc, "decode", failing)
        with pytest.raises(RuntimeError, match="chunk 0 failed"):
            run_trials(pathloss_plan(scenario_small, n=800), 1e-5, workers=2)
        assert 1 in started and len(started) < 8

    def test_engine_matches_accepts_rule(self, scenario_small):
        # roc_sweep counts acceptances with searchsorted; run_trials calls accepts
        eps = 1.2e-5
        plan = pathloss_plan(scenario_small, n=4000, seed=9)
        ts = empirical_distribution(plan, Hypothesis.H1, 4000)
        n_accepts = int(np.count_nonzero(accepts(ts, eps)))
        assert n_accepts == int(np.searchsorted(ts, eps, side="left"))


def pathloss_grid(scenario, lqs, **kw):
    scenarios = [replace(scenario, lq_db=lq) for lq in lqs]
    return ([pathloss_plan(sc, n=3000, seed=13, **kw) for sc in scenarios],
            [threshold_for_pfa(0.05, sc.noise_sigma) for sc in scenarios])


def cir_grid(scenario, lqs, **kw):
    scenarios = [replace(scenario, lq_db=lq) for lq in lqs]
    # the last point scores the phase statistic on the same draws
    features = [Feature.CIR_MAGNITUDE] * (len(lqs) - 1) + [Feature.CIR_PHASE]
    return ([cir_plan(sc, f, n=3000, seed=17, **kw) for sc, f in zip(scenarios, features)],
            [3.0 * rayleigh_sigma(sc.noise_sigma) for sc in scenarios])


class TestSweepTrials:
    @pytest.mark.parametrize("grid,kw", [
        (pathloss_grid, {"ris": True}),
        (pathloss_grid, {"ris": False}),
        (cir_grid, {"refade_alice": True}),
        (cir_grid, {"refade_alice": False}),
    ], ids=["pathloss-ris", "pathloss-noris", "cir-refading", "cir-pinned"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_run_trials_per_point(self, scenario_small, monkeypatch, grid, kw,
                                         workers):
        plans, epsilons = grid(scenario_small, [5.0, 20.0, 35.0, 50.0], **kw)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1100)  # 3 chunks
        swept = sweep_trials(plans, epsilons, workers=workers)
        assert swept == [run_trials(p, e) for p, e in zip(plans, epsilons)]
        assert len(set(swept)) > 1  # the points do differ

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_streams_equal_run_trials_per_point(self, scenario_small, monkeypatch,
                                                      workers):
        plans, epsilons = cir_grid(scenario_small, [10.0, 20.0])
        other_seed = replace(plans[1], master_seed=18)
        other_trials = replace(plans[1], n_trials=2999)
        other_stride = replace(plans[1], ris=False)  # one decoded gain, not 8
        # streams in first-seen order: plans[0] and plans[1]; then one stream each
        mixed = [plans[0], other_seed, other_trials, plans[1], other_stride]
        mixed_epsilons = [epsilons[0]] + [epsilons[1]] * 4
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 2 chunks a stream
        expected = [run_trials(p, e) for p, e in zip(mixed, mixed_epsilons)]
        calls = []
        real = mc._uniform_blocks

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "_uniform_blocks", counting)
        assert sweep_trials(mixed, mixed_epsilons, workers=workers) == expected
        # each stream's two chunks, once, in first-seen order; each with an enrollment.
        # A stream's chunks may decode concurrently, so each stream's pair is sorted.
        chunk_calls = [args for args in calls if args[2] > 0]
        assert [sorted(chunk_calls[i:i + 2]) for i in range(0, 8, 2)] == [
            [(17, 36, 1, 1500), (17, 36, 1501, 1500)], [(18, 36, 1, 1500), (18, 36, 1501, 1500)],
            [(17, 36, 1, 1500), (17, 36, 1501, 1499)], [(17, 8, 1, 1500), (17, 8, 1501, 1500)]]
        assert len(calls) == 4 * 2 * 2

    def test_refuses_malformed_sweeps(self, scenario_small):
        plans, epsilons = cir_grid(scenario_small, [10.0, 20.0])
        with pytest.raises(ValueError, match="one epsilon per plan"):
            sweep_trials(plans, epsilons[:1])
        with pytest.raises(ValueError, match="one epsilon per plan"):
            sweep_trials([], [])
        with pytest.raises(ValueError, match="epsilon"):
            sweep_trials(plans, [epsilons[0], math.nan])

    def test_sweep_decodes_each_chunk_once(self, scenario_small, monkeypatch):
        plans, epsilons = cir_grid(scenario_small, [10.0, 20.0, 30.0])
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 2 chunks
        calls = []
        real = mc._uniform_blocks

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "_uniform_blocks", counting)
        sweep_trials(plans, epsilons)
        assert len(calls) == 4  # per chunk: its trials and the enrollment block


def reference_cir_vectors(block, n, sigma_g_sq):
    """The CIR decode as the engine built it before it wrote the complex planes."""
    m = block.shape[0]
    z = np.empty((m, 2 * n + 1, 2))
    z[:, :, 0], z[:, :, 1] = reference_box_muller(block[:, 1 : 4 * n + 3 : 2],
                                                  block[:, 2 : 4 * n + 3 : 2])
    z = z.reshape(m, 4 * n + 2)
    h = (z[:, 0:n] + 1j * z[:, n : 2 * n]) / math.sqrt(2.0)
    g = math.sqrt(sigma_g_sq / 2.0) * (z[:, 2 * n : 3 * n] + 1j * z[:, 3 * n : 4 * n])
    noise_unit = (z[:, 4 * n] + 1j * z[:, 4 * n + 1]) / math.sqrt(2.0)
    return h, g, noise_unit


class TestDecodeBytes:
    """The decode keeps the bits of its earlier, plainer construction."""

    def test_pathloss_noise_is_box_muller_cosine(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=5000, seed=31)
        draws = decode(plan, 1, 5000)
        block = mc._uniform_blocks(31, 4, 1, 5000)
        expected = reference_box_muller(block[:, 1], block[:, 2])[0]
        assert draws.noise.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 256])
    def test_cir_vectors_equal_complex_construction(self, n):
        block = mc._uniform_blocks(23, 4 * n + 4, 1, 300)
        for got, want in zip(mc._cir_vectors(23, n, 0.37, 1, 300)[1:],
                             reference_cir_vectors(block, n, 0.37)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def two_pilot_grid(plan):
    """The auto grid as it was chosen before roc_sweep chose it: two separate pilots."""
    pilot = min(plan.n_trials, 10_000)
    samples = np.concatenate([empirical_distribution(plan, Hypothesis.H0, pilot),
                              empirical_distribution(plan, Hypothesis.H1, pilot)])
    positive = samples[samples > 0.0]
    lo = 0.5 * float(positive.min()) if positive.size else 1e-12
    hi = 1.05 * float(samples.max()) if samples.max() > 0 else 1.0
    if hi <= lo:
        hi = 10.0 * lo
    return np.geomspace(lo, hi, 50)


class TestRocSweep:
    @pytest.mark.parametrize("make_plan", [
        lambda sc, n: pathloss_plan(sc, n=n),
        lambda sc, n: cir_plan(sc, Feature.CIR_PHASE, n=n),
        lambda sc, n: cir_plan(sc, Feature.CIR_PHASE, n=n, refade_alice=False),
        lambda sc, n: cir_plan(sc, Feature.CIR_MAGNITUDE, n=n),
    ], ids=["pathloss", "cir-phase-refading", "cir-phase-frozen", "cir-magnitude"])
    @pytest.mark.parametrize("n,chunk", [(3000, None), (12_000, 4000)],
                             ids=["below-pilot-cap", "pilot-spans-3-chunks"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_auto_grid_equals_two_pilot_reference(self, scenario_small, monkeypatch,
                                                  make_plan, n, chunk, workers):
        plan = make_plan(scenario_small, n)
        if chunk:
            monkeypatch.setattr(mc, "_default_chunk", lambda plan: chunk)
        grid = two_pilot_grid(plan)
        expected = roc_sweep(plan, grid)
        curve = roc_sweep(plan, workers=workers)
        for got, want in [(curve.epsilons, grid), (curve.pfa, expected.pfa),
                          (curve.pd, expected.pd)]:
            np.testing.assert_array_equal(got, want)
        assert len(set(curve.pd.tolist())) > 1  # the grid spans the statistics

    @pytest.mark.parametrize("workers", [1, 2])
    def test_given_grid_counted_per_chunk(self, scenario_small, monkeypatch, workers):
        # each chunk returns its counts per threshold, never its trials' statistics
        plan = pathloss_plan(scenario_small, n=12_000, seed=21)
        grid = np.geomspace(1e-3, 0.5, 7)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 4000)
        real, results = mc._map_trials, []

        def spy(*args):
            out = real(*args)
            results.extend(out)
            return out

        monkeypatch.setattr(mc, "_map_trials", spy)
        curve = roc_sweep(plan, grid, workers=workers)
        assert len(results) == 3
        assert all(isinstance(r, np.ndarray) and r.size == 2 * (grid.size + 1) for r in results)
        draws = decode(plan, 1, plan.n_trials)
        ts = score(plan, draws)
        for got, part in [(curve.pfa, ts[draws.is_alice]), (curve.pd, ts[~draws.is_alice])]:
            want = 1.0 - np.searchsorted(np.sort(part), grid, side="left") / part.size
            np.testing.assert_array_equal(got, want)
        assert len(set(curve.pfa.tolist())) > 1 and len(set(curve.pd.tolist())) > 1

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

    def test_curve_columns(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=1000)
        curve = roc_sweep(plan, [1e-6, 1e-5])
        assert curve.epsilons.tolist() == [1e-6, 1e-5]
        assert curve.pfa.shape == curve.pd.shape == (2,)

    def test_grid_must_increase(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=100)
        with pytest.raises(ValueError):
            roc_sweep(plan, [2.0, 1.0])

    @pytest.mark.parametrize("grid", [[math.nan], [0.1, math.inf], [-1.0, 0.5]],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("entry", [
        "roc_sweep", "sweep_trials", "optimize_gradient", "optimize_phase_matrix",
        "pfa_pathloss", "pmd_pathloss", "pfa_cir_magnitude"])
    def test_refuses_bad_thresholds(self, scenario_small, grid, entry):
        # one check for every entry point that takes a threshold: finite and nonnegative,
        # so no optimizer or closed form turns a bad threshold into a zero error
        plan = pathloss_plan(scenario_small, n=100)
        bad = next(e for e in grid if not 0.0 <= e < math.inf)
        call = {
            "roc_sweep": lambda: roc_sweep(plan, grid),
            "sweep_trials": lambda: sweep_trials([plan] * len(grid), grid),
            "optimize_gradient": lambda: optimize_gradient(
                scenario_small, bad, default_gradient_grid(scenario_small, 100)),
            "optimize_phase_matrix": lambda: optimize_phase_matrix(scenario_small, bad,
                                                                   eval_trials=100),
            "pfa_pathloss": lambda: pfa_pathloss(bad, 1.0),
            "pmd_pathloss": lambda: pmd_pathloss(bad, 1.0, 2.0, 3.0),
            "pfa_cir_magnitude": lambda: pfa_cir_magnitude(bad, 1.0),
        }[entry]
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            call()

    def test_partition_independence(self, scenario_small, monkeypatch):
        plan = cir_plan(scenario_small, Feature.CIR_PHASE, n=3000)
        grid = np.geomspace(1e-3, 3.0, 10)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 3000)
        a = roc_sweep(plan, grid)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 271)
        b = roc_sweep(plan, grid)
        np.testing.assert_array_equal(a.pfa, b.pfa)
        np.testing.assert_array_equal(a.pd, b.pd)


class TestDecode:
    @pytest.mark.parametrize("kw", [dict(refade_alice=False), dict(refade_alice=True),
                                    dict(ris=False)], ids=["pinned", "refading", "no-ris"])
    @pytest.mark.parametrize("feature", [Feature.CIR_PHASE, Feature.CIR_MAGNITUDE],
                             ids=["phase", "magnitude"])
    def test_chunk_past_block_one_scores_its_slice(self, scenario_small, feature, kw):
        # a chunk's draws carry the enrollment block, whatever block the chunk starts at
        plan = cir_plan(scenario_small, feature, n=900, seed=13,
                        phases=np.linspace(0.0, 3.0, scenario_small.n_elements), **kw)
        whole = score(plan, decode(plan, 1, plan.n_trials))
        for lo, k in [(1, 1), (300, 250), (550, 350)]:
            np.testing.assert_array_equal(score(plan, decode(plan, lo + 1, k)),
                                          whole[lo:lo + k])

    def test_peak_memory_of_one_decode(self, scenario):
        # the uniforms (4N+4 doubles a trial) are freed before the normals are allocated:
        # 2.5 x the returned bytes on the full panel, 3.5 x while the decode held them
        plan = cir_plan(scenario, Feature.CIR_PHASE, n=1024)
        tracemalloc.start()
        try:
            draws = decode(plan, 1, plan.n_trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in vars(draws).values())
        assert peak <= 2.6 * returned


class TestEmpiricalDistribution:
    def test_sorted_output(self, scenario_small):
        plan = pathloss_plan(scenario_small)
        ts = empirical_distribution(plan, Hypothesis.H0, 5000)
        assert np.all(np.diff(ts) >= 0)

    def test_pathloss_h0_is_folded_normal(self, scenario_small):
        plan = pathloss_plan(scenario_small, seed=3)
        n = 2 * 10**5
        ts = empirical_distribution(plan, Hypothesis.H0, n)
        # at delta = 0 the folded-normal CDF is erf(x / (sigma sqrt 2))
        cdf = np.vectorize(math.erf)(ts / (scenario_small.noise_sigma * math.sqrt(2.0)))
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
        # noise variance 1e-40 P: the noise falls below the last bit of the fingerprint
        quiet = replace(scenario_small, lq_db=400.0)
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
        plan = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, ris=False, seed=11)
        gt = complex(decode(plan, 0, 1).h0[0])  # the enrolled gain: the single decoded h
        ts = empirical_distribution(plan, Hypothesis.H0, 10**5)
        expected_power = 1.0 + abs(gt) ** 2 + scenario_small.noise_variance
        assert np.mean(ts**2) == pytest.approx(expected_power, rel=0.05)

    def test_bad_sample_count(self, scenario_small):
        plan = pathloss_plan(scenario_small)
        with pytest.raises(ValueError):
            empirical_distribution(plan, Hypothesis.H0, 0)
