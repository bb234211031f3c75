"""Monte-Carlo engine: determinism, closed-form agreement, distribution checks."""

import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import TABLE1, RedecodeSpy, reference_box_muller, single_precision_trig_error
from hypothesis import given, settings
from hypothesis import strategies as st

from rispla import mc
from rispla.auth import (
    Feature,
    accepts,
    count_accepted,
    pfa_cir_magnitude,
    pfa_pathloss,
    pmd_pathloss,
    rayleigh_sigma,
    threshold_for_pfa,
)
from rispla.channel import PerElement, ScalarGradient
from rispla.cli import EXIT_OK, main
from rispla.mc import (
    Counts,
    ErrorEstimate,
    Hypothesis,
    TrialPlan,
    decode,
    empirical_distribution,
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


def counts_at(plan, epsilon, **kw) -> Counts:
    """The counts of one plan at one threshold."""
    (counts,) = sweep_trials([plan], [[epsilon]], **kw)
    return counts


def errors_at(plan, epsilon, **kw) -> tuple[ErrorEstimate, ErrorEstimate]:
    """(false alarm, missed detection) of one plan at one threshold."""
    counts = counts_at(plan, epsilon, **kw)
    return counts.false_alarm(0), counts.missed_detection(0)


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
                counts_at(plan, bad_threshold)


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


class TestCounts:
    def test_views(self):
        counts = Counts(grid=(0.5, 2.0), n_alice=3, n_eve=4, accepted=((1, 0), (3, 2)))
        assert counts.false_alarm(0) == ErrorEstimate.from_counts(2, 3)
        assert counts.missed_detection(1) == ErrorEstimate.from_counts(2, 4)
        pfa, pd = counts.roc()
        # 1 - accepted / n keeps the ROC files' bytes: 1 - 1/3 is not 2/3 in the last bit
        assert pfa.tolist() == [1.0 - 1 / 3, 0.0] and pfa[0] != 2 / 3
        assert pd.tolist() == [1.0, 0.5]
        # a sender without trials: NaN
        counts = Counts(grid=(1.0,), n_alice=0, n_eve=5, accepted=((0, 5),))
        assert math.isnan(counts.false_alarm(0).value)
        pfa, pd = counts.roc()
        assert math.isnan(pfa[0]) and pd[0] == 0.0


class TestSweepTrialsOnePoint:
    def test_huge_threshold_always_accepts(self, scenario_small):
        pfa, pmd = errors_at(pathloss_plan(scenario_small, n=2000), 1e12)
        assert pfa.value == 0.0
        assert pmd.value == 1.0

    def test_zero_threshold_always_rejects(self, scenario_small):
        pfa, pmd = errors_at(pathloss_plan(scenario_small, n=2000), 0.0)
        assert pfa.value == 1.0
        assert pmd.value == 0.0

    def test_pathloss_pfa_matches_closed_form(self, scenario_small):
        sigma = scenario_small.noise_sigma
        eps = threshold_for_pfa(0.05, sigma)
        pfa, _ = errors_at(pathloss_plan(scenario_small, n=10**6), eps)
        se = math.sqrt(0.05 * 0.95 / pfa.n_conditioning)
        assert abs(pfa.value - 0.05) < 3 * se

    def test_uniform_transmitter_split(self, scenario_small):
        n = 10**5
        counts = counts_at(pathloss_plan(scenario_small, n=n), 1.0)
        assert counts.n_alice + counts.n_eve == n
        assert abs(counts.n_alice - n / 2) < 5 * math.sqrt(n * 0.25)

    def test_single_trial_flags_empty_hypothesis(self, scenario_small):
        pfa, pmd = errors_at(pathloss_plan(scenario_small, n=1), 1.0)
        assert (pfa.n_conditioning == 0) != (pmd.n_conditioning == 0)
        empty = pfa if pfa.n_conditioning == 0 else pmd
        assert math.isnan(empty.value)

    def test_partition_independence(self, scenario_small, monkeypatch):
        plan = pathloss_plan(scenario_small, n=5000)
        ref = counts_at(plan, 1e-5)
        for chunk in (1, 7, 499, 5000):
            monkeypatch.setattr(mc, "_default_chunk", lambda plan, chunk=chunk: chunk)
            assert counts_at(plan, 1e-5) == ref

    @pytest.mark.parametrize("feature", [Feature.PATHLOSS, Feature.CIR_MAGNITUDE])
    def test_one_trial_of_the_uncounted_sender(self, scenario_small, feature):
        plan = (pathloss_plan(scenario_small, n=1) if feature is Feature.PATHLOSS
                else cir_plan(scenario_small, feature, n=1))
        sent = counts_at(plan, 1.0)
        # count the sender that did not send the only trial: nothing is left to decode
        hypothesis = Hypothesis.H1 if sent.n_alice else Hypothesis.H0
        counts = counts_at(plan, 1.0, hypothesis=hypothesis)
        assert (counts.n_alice, counts.n_eve, counts.accepted) == (0, 0, ((0, 0),))
        counted = (counts.false_alarm(0) if hypothesis is Hypothesis.H0
                   else counts.missed_detection(0))
        assert counted.n_conditioning == 0 and math.isnan(counted.value)

    def test_worker_independence(self, scenario_small, monkeypatch):
        plan = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, n=4000)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 3 chunks
        assert counts_at(plan, 1.0, workers=2) == counts_at(plan, 1.0, workers=1)

    def test_workers_capped_at_cpu_count(self, scenario_small, monkeypatch):
        started = recording_pool(monkeypatch)
        plan = pathloss_plan(scenario_small, n=2000)
        ref = counts_at(plan, 1e-5)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 500)  # 4 chunks
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
        assert counts_at(plan, 1e-5, workers=100_000) == ref
        assert started == [3]
        for cpus in (1, None):  # one CPU, or a count the OS cannot tell: no pool
            monkeypatch.setattr(mc.os, "cpu_count", lambda cpus=cpus: cpus)
            assert counts_at(plan, 1e-5, workers=100_000) == ref
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1000)  # 2 chunks
        assert counts_at(plan, 1e-5, workers=100_000) == ref
        assert started == [3, 2]

    def test_one_chunk_starts_no_pool(self, scenario_small, monkeypatch):
        started = recording_pool(monkeypatch)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        plan = pathloss_plan(scenario_small, n=2000)  # below one default chunk
        assert counts_at(plan, 1e-5, workers=2) == counts_at(plan, 1e-5)
        assert started == []

    def test_raising_chunk_cancels_the_rest(self, scenario_small, monkeypatch):
        # chunk 0 raises at once while chunk 1 sleeps: the chunks still queued never start
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 100)  # 8 chunks
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        started = []
        real = mc._decode

        def failing(plan, trials, *args):
            started.append(trials.start + 1)  # the chunk's first block
            if trials.start == 0:
                raise RuntimeError("chunk 0 failed")
            time.sleep(0.2)
            return real(plan, trials, *args)

        monkeypatch.setattr(mc, "_decode", failing)
        with pytest.raises(RuntimeError, match="chunk 0 failed"):
            counts_at(pathloss_plan(scenario_small, n=800), 1e-5, workers=2)
        assert 1 in started and len(started) < 8

    def test_engine_matches_accepts_rule(self, scenario_small):
        # the engine counts acceptances with searchsorted (count_accepted); the rule is accepts
        eps = 1.2e-5
        plan = pathloss_plan(scenario_small, n=4000, seed=9)
        ts = empirical_distribution(plan, Hypothesis.H1)
        n_accepts = int(np.count_nonzero(accepts(ts, eps)))
        assert n_accepts == int(np.searchsorted(ts, eps, side="left"))


def pathloss_grid(scenario, lqs, **kw):
    scenarios = [replace(scenario, lq_db=lq) for lq in lqs]
    return ([pathloss_plan(sc, n=3000, seed=13, **kw) for sc in scenarios],
            [[threshold_for_pfa(0.05, sc.noise_sigma)] for sc in scenarios])


def cir_grid(scenario, lqs, **kw):
    scenarios = [replace(scenario, lq_db=lq) for lq in lqs]
    # the last point scores the phase statistic on the same draws
    features = [Feature.CIR_MAGNITUDE] * (len(lqs) - 1) + [Feature.CIR_PHASE]
    return ([cir_plan(sc, f, n=3000, seed=17, **kw) for sc, f in zip(scenarios, features)],
            [[3.0 * rayleigh_sigma(sc.noise_sigma)] for sc in scenarios])


class TestSweepTrials:
    @pytest.mark.parametrize("grid,kw", [
        (pathloss_grid, {"ris": True}),
        (pathloss_grid, {"ris": False}),
        (cir_grid, {"refade_alice": True}),
        (cir_grid, {"refade_alice": False}),
    ], ids=["pathloss-ris", "pathloss-noris", "cir-refading", "cir-pinned"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_one_sweep_per_point(self, scenario_small, monkeypatch, grid, kw,
                                        workers):
        plans, grids = grid(scenario_small, [5.0, 20.0, 35.0, 50.0], **kw)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1100)  # 3 chunks
        swept = sweep_trials(plans, grids, workers=workers)
        assert swept == [counts_at(p, e) for p, (e,) in zip(plans, grids)]
        assert len(set(swept)) > 1  # the points do differ

    @pytest.mark.parametrize("workers", [1, 2])
    @given(seed=st.integers(0, 2**64 - 1),
           lqs=st.lists(st.floats(-20.0, 360.0), min_size=1, max_size=3),
           gradient=st.floats(0.0, 40.0), tie=st.integers(0, 2999))
    def test_pathloss_counts_equal_the_rule(self, scenario_small, workers, seed, lqs, gradient,
                                            tie):
        # the pathloss counts come from searches on sorted noise, not from score(): check
        # them against accepts(score(...)) over the whole decoded range. Above about 300 dB,
        # sigma_n * n nears pl_a's ulp and the searches' starting cuts are far off
        plans = [pathloss_plan(replace(scenario_small, lq_db=lq), n=3000, seed=seed,
                               gradient=gradient, ris=ris)
                 for lq in lqs for ris in (True, False)]
        draws = decode(plans[0], range(3000))
        is_alice = draws.is_alice
        expected = []
        for plan in plans:
            ts = score(plan, draws)
            pfa_threshold = threshold_for_pfa(0.05, plan.scenario.noise_sigma)
            # ts[tie] as a threshold: that trial ties, and ties reject. The grids are one
            # table, so where ts[tie] is 0.0 or the threshold, 1e300 is the third point
            grid = sorted({0.0, float(ts[tie]), float(pfa_threshold), 1e300})[:3]
            expected.append(Counts(tuple(grid), int(np.count_nonzero(is_alice)),
                                   int(np.count_nonzero(~is_alice)), tuple(
                (int(np.count_nonzero(is_alice & accepts(ts, e))),
                 int(np.count_nonzero(~is_alice & accepts(ts, e)))) for e in grid)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_default_chunk", lambda plan: 1100)  # 3 chunks
            got = sweep_trials(plans, [c.grid for c in expected], workers=workers)
            assert got == expected

    def test_pathloss_counts_probe_near_the_cut(self, scenario, monkeypatch):
        # each end of a count's accepted run is searched from its real-arithmetic cut, so at
        # table1's link qualities a count takes a few probes (one _observed call each), not
        # a bisection of the whole chunk (43-49)
        scenarios = [replace(scenario, lq_db=lq) for lq in range(50, 101, 5)]
        plans = [pathloss_plan(sc, n=20000, ris=ris) for sc in scenarios for ris in (True, False)]
        grids = [[threshold_for_pfa(p, plan.scenario.noise_sigma) for p in (0.5, 0.05)]
                 for plan in plans]
        calls, observed, accepted_run = [], mc._observed, mc._accepted_run

        def counting_observed(*args):
            calls[-1][1] += 1
            return observed(*args)

        def counting_run(noise, pl_true, pl_a, *args):
            calls.append([bool(np.all(pl_true == pl_a)), 0, noise.size])
            return accepted_run(noise, pl_true, pl_a, *args)

        monkeypatch.setattr(mc, "_observed", counting_observed)
        monkeypatch.setattr(mc, "_accepted_run", counting_run)
        sweep_trials(plans, grids)
        assert sorted(alice for alice, _, _ in calls) == [False, True]  # one stream, one chunk
        for _, probes, size in calls:
            assert size > 0
            assert probes <= 6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_streams_equal_one_sweep_per_point(self, scenario_small, monkeypatch,
                                                     workers):
        plans, grids = cir_grid(scenario_small, [10.0, 20.0])
        other_seed = replace(plans[1], master_seed=18)
        other_trials = replace(plans[1], n_trials=2999)
        other_stride = replace(plans[1], ris=False)  # one decoded gain, not 8
        # streams in first-seen order: plans[0] and plans[1]; then one stream each
        mixed = [plans[0], other_seed, other_trials, plans[1], other_stride]
        mixed_grids = [grids[0]] + [grids[1]] * 4
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 2 chunks a stream
        expected = [counts_at(p, e) for p, (e,) in zip(mixed, mixed_grids)]
        calls = []
        real = mc._uniform_blocks

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "_uniform_blocks", counting)
        redecodes = RedecodeSpy(monkeypatch)
        assert sweep_trials(mixed, mixed_grids, workers=workers) == expected
        # each stream's two chunks, once, in first-seen order, and its enrollment once.
        # A stream's chunks may decode concurrently, so each stream's pair is sorted.
        chunk_calls = [args for args in calls if args[3] > 1]
        assert [sorted(chunk_calls[i:i + 2]) for i in range(0, 8, 2)] == [
            [(17, 36, 1, 1500), (17, 36, 1501, 1500)], [(18, 36, 1, 1500), (18, 36, 1501, 1500)],
            [(17, 36, 1, 1500), (17, 36, 1501, 1499)], [(17, 8, 1, 1500), (17, 8, 1501, 1500)]]
        assert [args for args in calls if args[2] == 0] == [
            (17, 36, 0, 1), (18, 36, 0, 1), (17, 36, 0, 1), (17, 8, 0, 1)]
        # and each trial that the bound leaves undecided, from its own block
        assert len(calls) == 4 * 2 + 4 + len(redecodes.trials)

    @pytest.mark.parametrize("grid,kw", [
        (pathloss_grid, {}),
        (cir_grid, {"refade_alice": True}),
        (cir_grid, {"refade_alice": False}),
    ], ids=["pathloss", "cir-refading", "cir-pinned"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_hypothesis_equals_its_half_of_the_sweep(self, scenario_small, monkeypatch,
                                                          grid, kw, workers):
        # both baselines in one call, as --baseline both makes it
        plans, grids = grid(scenario_small, [5.0, 20.0, 35.0], **kw)
        plans += [replace(plan, ris=False) for plan in plans]
        grids *= 2
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1100)  # 3 chunks
        both = sweep_trials(plans, grids, workers=workers)
        # the other sender's trials are not decoded: its n and counts are 0
        assert sweep_trials(plans, grids, hypothesis=Hypothesis.H0, workers=workers) == [
            replace(c, n_eve=0, accepted=tuple((a, 0) for a, _ in c.accepted)) for c in both]
        assert sweep_trials(plans, grids, hypothesis=Hypothesis.H1, workers=workers) == [
            replace(c, n_alice=0, accepted=tuple((0, e) for _, e in c.accepted)) for c in both]

    @pytest.mark.parametrize("feature", ["pathloss", "cir-magnitude"])
    @pytest.mark.parametrize("command", ["sweep-pfa", "sweep-pmd"])
    def test_sweep_runs_box_muller_on_its_sender_only(self, scenario, tmp_path, monkeypatch,
                                                      feature, command):
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 600)  # 2 chunks
        plan = (pathloss_plan(scenario, n=1000, seed=5) if feature == "pathloss"
                else cir_plan(scenario, Feature.CIR_MAGNITUDE, n=1000, seed=5))
        is_alice = decode(plan, range(1000)).is_alice
        sender = is_alice if command == "sweep-pfa" else ~is_alice
        rows = []
        real = mc._polar
        redecodes = RedecodeSpy(monkeypatch)

        def counting(u, v):
            if not redecodes.running:
                rows.append(u.shape[0])
            return real(u, v)

        monkeypatch.setattr(mc, "_polar", counting)
        code = main([command, "--scenario", str(TABLE1), "--feature", feature, "--epsilon",
                     "1.0", "--lq-grid", "0,20", "--trials", "1000", "--seed", "5",
                     "--output", str(tmp_path / "out.csv")])
        assert code == EXIT_OK
        # per chunk, its sender's rows; CIR also decodes the one enrollment block, first
        chunks = [int(np.count_nonzero(sender[:600])), int(np.count_nonzero(sender[600:]))]
        assert rows == (chunks if feature == "pathloss" else [1, *chunks])
        assert all(sender[redecodes.trials])  # a re-decoded trial is the sender's too

    def test_refuses_malformed_sweeps(self, scenario_small):
        plans, grids = cir_grid(scenario_small, [10.0, 20.0])
        with pytest.raises(ValueError, match="one grid per plan"):
            sweep_trials(plans, grids[:1])
        with pytest.raises(ValueError, match="one grid per plan"):
            sweep_trials([], [])
        with pytest.raises(ValueError, match="one grid per plan"):
            sweep_trials([])
        with pytest.raises(ValueError, match="epsilon"):
            sweep_trials(plans, [grids[0], [math.nan]])
        # a grid is a nonempty, strictly increasing 1-D sequence
        for bad in ([], [[]], 1.0, [[1.0]], [1.0, 1.0], [0.1, math.nan, 0.5]):
            with pytest.raises(ValueError, match="strictly increasing 1-D"):
                sweep_trials(plans[:1], [bad])
        for hypothesis in Hypothesis:  # the auto grid's pilot scores both senders' trials
            with pytest.raises(ValueError, match="both senders"):
                sweep_trials(plans, hypothesis=hypothesis)
        # the grids are one table, a row per plan: rows of two lengths are refused
        for ragged in ([[0.1], [0.1, 0.2]], [np.array([0.1, 0.2]), np.array([0.3])]):
            with pytest.raises(ValueError, match="a table's grids all of one length"):
                sweep_trials(plans, ragged)

    def test_sweep_decodes_each_chunk_once(self, scenario_small, monkeypatch):
        plans, grids = cir_grid(scenario_small, [10.0, 20.0, 30.0])
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 2 chunks
        calls = []
        real = mc._uniform_blocks

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "_uniform_blocks", counting)
        redecodes = RedecodeSpy(monkeypatch)
        sweep_trials(plans, grids)
        # each chunk's trials and the enrollment block once; and each trial that the bound
        # leaves undecided, from its own block
        assert len(calls) == 3 + len(redecodes.trials)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_element_panel_and_direct_link_share_a_stream(self, scenario_small, workers):
        # one element with unit fading decodes what the direct link decodes: the baselines
        # share their chunks but not their cascaded gains
        sc = replace(scenario_small, n_elements=1, sigma_g_sq=1.0)
        plans = [cir_plan(sc, Feature.CIR_MAGNITUDE, n=3000, phases=np.array([1.0]), ris=ris)
                 for ris in (True, False)]
        assert mc._stream(plans[0]) == mc._stream(plans[1])
        grids = [[3.0 * rayleigh_sigma(sc.noise_sigma)]] * 2
        swept = sweep_trials(plans, grids, workers=workers)
        assert swept == [counts_at(p, e) for p, (e,) in zip(plans, grids)]
        assert swept[0] != swept[1]
        auto = sweep_trials(plans, workers=workers)  # the auto grid and its pilot
        assert auto == [sweep_trials([plan])[0] for plan in plans]

    @pytest.mark.parametrize("call", ["roc-auto-grid", "sweep-3-points"])
    def test_one_cascade_per_chunk(self, scenario_small, monkeypatch, call):
        # the points of a sweep share their (baseline, phases) cascade, and so do a ROC's
        # statistics and its forced-H0/H1 pilot
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 2 chunks
        rows = []
        real = mc._cascade
        redecodes = RedecodeSpy(monkeypatch)

        def counting(h, g, phases):
            rows.append(h.shape[0])
            return real(h, g, phases)

        monkeypatch.setattr(mc, "_cascade", counting)
        if call == "roc-auto-grid":
            sweep_trials([cir_plan(scenario_small, Feature.CIR_PHASE, n=3000)])
        else:
            sweep_trials(*cir_grid(scenario_small, [10.0, 20.0, 30.0]))
        # one per chunk, and one per batch of trials that the bound leaves undecided
        assert sorted(rows) == sorted([1500, 1500, *(batch.size for batch in redecodes.batches)])


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
        draws = decode(plan, range(5000))
        block = mc._uniform_blocks(31, 4, 1, 5000)
        expected = reference_box_muller(block[:, 1], block[:, 2])[0]
        assert draws.noise.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 256])
    def test_cir_vectors_equal_complex_construction(self, n):
        block = mc._uniform_blocks(23, 4 * n + 4, 1, 300)
        draws = mc._cir_vectors(23, n, 0.37, range(300))
        for got, want in zip([draws.h, draws.g, draws.noise],
                             reference_cir_vectors(block, n, 0.37)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestOneSenderDecode:
    """A decode for one hypothesis keeps the bits of the full decode's rows of its sender."""

    @pytest.mark.parametrize("case", ["pathloss", "cir-panel", "cir-direct"])
    @pytest.mark.parametrize("n_blocks", [3, 1000])
    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_rows_equal_the_full_decode(self, scenario, case, n_blocks, hypothesis):
        plan = (pathloss_plan(scenario, seed=29) if case == "pathloss"
                else cir_plan(scenario, Feature.CIR_MAGNITUDE, seed=29,
                              ris=case == "cir-panel"))
        full = decode(plan, range(6, 6 + n_blocks))
        one = decode(plan, range(6, 6 + n_blocks), hypothesis)
        keep = full.is_alice == (hypothesis is Hypothesis.H0)
        assert 0 < np.count_nonzero(keep) < n_blocks  # each sender has rows
        assert one.is_alice.tobytes() == full.is_alice[keep].tobytes()
        pairs = [(one.noise, full.noise[keep]), (one.h0, full.h0), (one.g0, full.g0)]
        if case != "pathloss":
            pairs += [(one.h, full.h[keep]), (one.g, full.g[keep])]
        for got, want in pairs:
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def two_pilot_grid(plan):
    """The auto grid as it was chosen before the engine chose it: two separate pilots."""
    pilot = replace(plan, n_trials=min(plan.n_trials, 10_000))
    samples = np.concatenate([empirical_distribution(pilot, Hypothesis.H0),
                              empirical_distribution(pilot, Hypothesis.H1)])
    positive = samples[samples > 0.0]
    lo = 0.5 * float(positive.min()) if positive.size else 1e-12
    hi = 1.05 * float(samples.max()) if samples.max() > 0 else 1.0
    if hi <= lo:
        hi = 10.0 * lo
    return np.geomspace(lo, hi, 50)


class TestAutoGrid:
    @given(st.lists(st.floats(0.0, 1e300, allow_subnormal=False), min_size=1, max_size=40),
           st.floats(1e-300, 1e300))
    def test_ends_from_the_samples(self, samples, positive):
        # at least one positive sample: the grid runs from 0.5 x the least positive to
        # 1.05 x the greatest, and 1.05 x the greatest exceeds 0.5 x the least positive
        samples = np.array([*samples, positive])
        grid = mc._auto_grid(samples)
        assert grid.size == mc.ROC_AUTO_POINTS
        assert grid[0] == 0.5 * samples[samples > 0.0].min()
        assert grid[-1] == 1.05 * samples.max()
        assert np.all(np.diff(grid) > 0.0)

    @pytest.mark.parametrize("n", [1, 3, 10_000])
    def test_all_zero_samples(self, n):
        grid = mc._auto_grid(np.zeros(n))
        assert (grid[0], grid[-1], grid.size) == (1e-12, 1.0, mc.ROC_AUTO_POINTS)
        assert np.all(np.diff(grid) > 0.0)


def full_count_curve(plan, grid, piece=4100):
    """(pfa, pd) as the engine counted them before it counted per stream: every trial scored,
    split by sender with a boolean index, sorted and counted with count_accepted."""
    ts, is_alice = [], []
    for lo in range(0, plan.n_trials, piece):  # decoded in pieces, to bound the memory
        draws = decode(plan, range(lo, min(lo + piece, plan.n_trials)))
        ts.append(score(plan, draws))
        is_alice.append(draws.is_alice)
    ts, is_alice = np.concatenate(ts), np.concatenate(is_alice)
    return [1.0 - count_accepted(np.sort(ts[mask]), grid) / np.count_nonzero(mask)
            for mask in (is_alice, ~is_alice)]


class TestSweepTrialsRoc:
    @pytest.mark.parametrize("case", ["cir-n256-8200", "pathloss-small-chunks"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pilot_across_chunks_equals_full_count(self, scenario, scenario_small, monkeypatch,
                                                    case, workers):
        if case == "cir-n256-8200":
            # the 8200-trial pilot spans every default chunk of the full panel, three or more
            plan = cir_plan(scenario, Feature.CIR_PHASE, n=8200)
            assert -(-plan.n_trials // mc._default_chunk(plan)) >= 3
        else:
            plan = pathloss_plan(scenario_small, n=12_000, seed=21)
            monkeypatch.setattr(mc, "_default_chunk", lambda plan: 2500)  # pilot: 4 chunks
        grid = two_pilot_grid(plan)
        (counts,) = sweep_trials([plan], workers=workers)
        curve = counts.roc()
        for got, want in zip([counts.grid, *curve], [grid, *full_count_curve(plan, grid)]):
            np.testing.assert_array_equal(got, want)
        assert all(len(set(column.tolist())) > 1 for column in curve)

    @pytest.mark.parametrize("make_plan", [
        lambda sc, n: pathloss_plan(sc, n=n),
        lambda sc, n: cir_plan(sc, Feature.CIR_PHASE, n=n),
        lambda sc, n: cir_plan(sc, Feature.CIR_PHASE, n=n, refade_alice=False),
        lambda sc, n: cir_plan(sc, Feature.CIR_MAGNITUDE, n=n),
        lambda sc, n: cir_plan(sc, Feature.CIR_MAGNITUDE, n=n, refade_alice=False),
        lambda sc, n: cir_plan(sc, Feature.CIR_PHASE, n=n, ris=False),
    ], ids=["pathloss", "cir-phase-refading", "cir-phase-frozen", "cir-magnitude",
            "cir-magnitude-frozen", "cir-phase-direct"])
    @pytest.mark.parametrize("n,chunk", [(3000, None), (12_000, 4000), (16_000, 4000)],
                             ids=["below-pilot-cap", "pilot-spans-3-chunks", "chunk-past-pilot"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_auto_grid_equals_two_pilot_reference(self, scenario_small, monkeypatch,
                                                  make_plan, n, chunk, workers):
        plan = make_plan(scenario_small, n)
        if chunk:
            monkeypatch.setattr(mc, "_default_chunk", lambda plan: chunk)
        grid = two_pilot_grid(plan)
        (counts,) = sweep_trials([plan], workers=workers)
        assert counts == sweep_trials([plan], [grid])[0]
        assert len(set(counts.roc()[1].tolist())) > 1  # the grid spans the statistics

    @pytest.mark.parametrize("refade", [True, False], ids=["refading", "pinned"])
    @pytest.mark.parametrize("feature", [Feature.CIR_PHASE, Feature.CIR_MAGNITUDE],
                             ids=["phase", "magnitude"])
    def test_pilot_scores_as_each_sender_only_a_pinned_plan(self, scenario_small, monkeypatch,
                                                             feature, refade):
        # a sender changes only a pinned Alice's cascade (_received): the pilot scores a
        # re-fading plan once per chunk, and a pinned one again as each sender's in the pilot's
        # chunks only; the third chunk, [10000, 15000), lies past the 10^4-trial pilot
        plan = cir_plan(scenario_small, feature, n=15_000, refade_alice=refade)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 5000)
        calls = []  # (function, sender, the draws' first trial: None for an exact decode)
        for name in ("_bounded_score", "_score"):
            def spy(plan, draws, gains, sender=None, real=getattr(mc, name), name=name):
                first = None if draws.trials is None else int(draws.trials[0])
                calls.append((name, sender, first))
                return real(plan, draws, gains, sender)

            monkeypatch.setattr(mc, name, spy)
        sweep_trials([plan])
        senders = [] if refade else list(Hypothesis)
        bounded = [(sender, first) for name, sender, first in calls if name == "_bounded_score"]
        assert bounded == [(sender, lo) for lo in (0, 5000, 10_000)
                           for sender in [None, *(senders if lo < 10_000 else [])]]
        exact = [(sender, first) for name, sender, first in calls if name == "_score"]
        extremes = [(sender, None) for sender in senders or [None]]  # the pilot's, exactly
        assert exact[:len(extremes)] == extremes
        undecided = exact[len(extremes):]  # an exact batch of undecided trials, if any, a chunk
        assert set(undecided) <= {(None, None)} and len(undecided) <= 3

    def test_auto_grid_holds_no_stream_wide_copy(self, scenario_small):
        # once the pilot picks the grid, each held chunk is counted on its own: the peak grows
        # by the held state, 25 bytes a trial ((a, e), flag and index), not by a copy of it
        def peak(n):
            tracemalloc.start()
            try:
                sweep_trials([cir_plan(scenario_small, Feature.CIR_PHASE, n=n)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sweep_trials([cir_plan(scenario_small, Feature.CIR_PHASE, n=20_000)])  # warm up
        assert peak(300_000) - peak(100_000) <= 35 * 200_000

    def test_pathloss_auto_grid_holds_nothing_per_trial(self, scenario):
        # the pilot picks the grid before any chunk is counted, so no chunk holds its noise
        def peak(n):
            plans = [pathloss_plan(scenario, n=n, ris=ris) for ris in (True, False)]
            tracemalloc.start()
            try:
                sweep_trials(plans)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20_000)  # warm up
        assert peak(1_200_000) - peak(400_000) <= 1 * (1_200_000 - 400_000)  # bytes a trial

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
        (counts,) = sweep_trials([plan], [grid], workers=workers)
        assert len(results) == 3
        assert all(isinstance(r, np.ndarray) and r.size == 2 * (grid.size + 1) for r in results)
        draws = decode(plan, range(plan.n_trials))
        ts = score(plan, draws)
        curve = counts.roc()
        for got, part in zip(curve, [ts[draws.is_alice], ts[~draws.is_alice]]):
            want = 1.0 - np.searchsorted(np.sort(part), grid, side="left") / part.size
            np.testing.assert_array_equal(got, want)
        assert all(len(set(column.tolist())) > 1 for column in curve)

    def test_single_point_matches_its_errors(self, scenario_small):
        eps = 1.5e-5
        plan = pathloss_plan(scenario_small, n=20000)
        counts = counts_at(plan, eps)
        pfa, pd = counts.roc()
        assert pfa[0] == pytest.approx(counts.false_alarm(0).value, abs=1e-15)
        assert pd[0] == pytest.approx(1.0 - counts.missed_detection(0).value, abs=1e-15)

    def test_endpoints(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=20000)
        pfa, pd = sweep_trials([plan], [[0.0, 1e12]])[0].roc()
        assert (pfa[0], pd[0]) == (1.0, 1.0)
        assert (pfa[-1], pd[-1]) == (0.0, 0.0)

    def test_comonotone(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=30000)
        grid = np.geomspace(1e-7, 1e-4, 25)
        pfa, pd = sweep_trials([plan], [grid])[0].roc()
        assert np.all(np.diff(pfa) <= 0)
        assert np.all(np.diff(pd) <= 0)

    def test_curve_columns(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=1000)
        (counts,) = sweep_trials([plan], [np.array([1e-6, 1e-5])])
        assert counts.grid == (1e-6, 1e-5)
        # Python numbers only, so no numpy scalar reaches a CSV cell's repr
        numbers = [*counts.grid, counts.n_alice, counts.n_eve, *sum(counts.accepted, ())]
        assert [type(x) for x in numbers] == [float] * 2 + [int] * 6
        pfa, pd = counts.roc()
        assert pfa.shape == pd.shape == (2,)

    def test_grid_must_increase(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=100)
        with pytest.raises(ValueError):
            sweep_trials([plan], [[2.0, 1.0]])

    @pytest.mark.parametrize("grid", [[math.nan], [0.1, math.inf], [-1.0, 0.5]],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("entry", [
        "sweep_trials_grid", "sweep_trials", "optimize_gradient", "optimize_phase_matrix",
        "pfa_pathloss", "pmd_pathloss", "pfa_cir_magnitude"])
    def test_refuses_bad_thresholds(self, scenario_small, grid, entry):
        # one check for every entry point that takes a threshold: finite and nonnegative,
        # so no optimizer or closed form turns a bad threshold into a zero error
        plan = pathloss_plan(scenario_small, n=100)
        bad = next(e for e in grid if not 0.0 <= e < math.inf)
        call = {
            "sweep_trials_grid": lambda: sweep_trials([plan], [grid]),  # one grid, many thresholds
            "sweep_trials": lambda: sweep_trials([plan] * len(grid), [[e] for e in grid]),
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
        a = sweep_trials([plan], [grid])
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 271)
        assert sweep_trials([plan], [grid]) == a


def exact_counts(plan, grid, hypothesis=None) -> Counts:
    """The counts as decode + score + count_accepted give them: one exact decode of every
    trial (of the hypothesis's sender only, if given), each sender's statistics sorted."""
    draws = decode(plan, range(plan.n_trials), hypothesis)
    ts = score(plan, draws)
    alice, eve = (np.sort(ts[mask]) for mask in (draws.is_alice, ~draws.is_alice))
    grid = np.asarray(grid, dtype=float)
    return Counts(tuple(grid.tolist()), alice.size, eve.size, tuple(zip(
        count_accepted(alice, grid).tolist(), count_accepted(eve, grid).tolist())))


BOUNDED_CASES = {
    "magnitude-refading": dict(feature=Feature.CIR_MAGNITUDE),
    "magnitude-pinned": dict(feature=Feature.CIR_MAGNITUDE, refade_alice=False),
    "magnitude-direct": dict(feature=Feature.CIR_MAGNITUDE, ris=False),
    "phase-refading": dict(feature=Feature.CIR_PHASE),
    "phase-pinned": dict(feature=Feature.CIR_PHASE, refade_alice=False),
    "phase-direct": dict(feature=Feature.CIR_PHASE, ris=False),
}


def bounded_plan(scenario, case, seed, n):
    kw = dict(BOUNDED_CASES[case])
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, scenario.n_elements)
    return cir_plan(scenario, kw.pop("feature"), n=n, seed=seed, phases=phases, **kw)


def adversarial_grid(ts, trials, quantiles=(0.1, 0.5, 0.9)):
    """Thresholds at the exact statistics of the given trials and one ulp on either side of
    each, among thresholds at quantiles of all the statistics."""
    on = ts[trials]
    points = [on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf), np.quantile(ts, quantiles)]
    return np.unique(np.concatenate(points))


def term_by_term_gap(plan, power, size):
    """mc._observed_gap's (Do, O) as derived term by term through h, g, the cascade and the
    noise, with their rounding: the pair that the two-term bound must dominate."""
    _, _, n, g_scale = mc._stream(plan)
    u, sigma_n, t = mc._ROUNDOFF, plan.scenario.noise_sigma, mc._TRIG_ERROR + 4.0 * mc._ROUNDOFF
    a, b, v = np.sqrt(power).T
    dh, h = t * a, math.sqrt(0.5) * a
    if plan.ris:
        dg, g = t * math.sqrt(g_scale) * b, math.sqrt(0.5 * g_scale) * b
        terms = (h + dh) * (g + dg)
        rho = 2.0 * (n + 4) * u * terms
        dc, c = dh * (g + dg) + h * dg + 2.0 * rho, terms + rho
    else:
        dc, c = dh, h + dh
    w = math.sqrt(0.5) * v + t * v
    o = c + size + sigma_n * w
    return dc + sigma_n * (t * v + 2.0 * u * w) + 2.0 * u * o, o


class TestBoundedDecode:
    """sweep_trials decides CIR trials from single-precision trig and a bound, and re-decodes
    exactly those it cannot decide: its counts and auto grids are the exact decode's."""

    @pytest.mark.parametrize("case", list(BOUNDED_CASES))
    @pytest.mark.parametrize("seed", range(20))
    def test_counts_equal_the_exact_reference(self, scenario_small, monkeypatch, case, seed):
        workers = 1 + seed % 2
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 250)  # 3 chunks
        plan = bounded_plan(scenario_small, case, seed, n=600)
        # a second point on the stream: another link quality, so another noise scale
        plans = [plan, replace(plan, scenario=replace(scenario_small, lq_db=10.0))]
        draws = decode(plan, range(plan.n_trials))
        ts = score(plan, draws)
        rng = np.random.default_rng(seed)
        senders = {Hypothesis.H0: draws.is_alice, Hypothesis.H1: ~draws.is_alice}
        chosen = {h: rng.choice(np.flatnonzero(rows), 2) for h, rows in senders.items()}
        grid = adversarial_grid(ts, np.concatenate(list(chosen.values())))
        for hypothesis in (None, *Hypothesis):
            redecodes = RedecodeSpy(monkeypatch)
            got = sweep_trials(plans, [grid] * 2, hypothesis=hypothesis, workers=workers)
            assert got == [exact_counts(p, grid, hypothesis) for p in plans]
            # a threshold on a trial's exact statistic lies in its interval: undecided
            counted = list(Hypothesis) if hypothesis is None else [hypothesis]
            assert set(np.concatenate([chosen[h] for h in counted]).tolist()) <= set(
                redecodes.trials)
        auto = sweep_trials(plans, workers=workers)
        assert auto == [exact_counts(p, two_pilot_grid(p)) for p in plans]

    @pytest.mark.parametrize("feature", [Feature.CIR_MAGNITUDE, Feature.CIR_PHASE])
    @pytest.mark.parametrize("seed", range(3))
    def test_full_panel_equals_the_exact_reference(self, scenario, monkeypatch, feature, seed):
        # the cir-panel shapes: a sweep of Eve's trials over link qualities, and a ROC on
        # its auto grid, over three default chunks of 510 trials
        plans = [cir_plan(replace(scenario, lq_db=lq), feature, n=1100, seed=seed)
                 for lq in (0.0, 20.0, 40.0)]
        grids = [[3.0 * rayleigh_sigma(p.scenario.noise_sigma)] for p in plans]
        if feature is Feature.CIR_PHASE:
            grids = [[0.05]] * 3
        swept = sweep_trials(plans, grids, hypothesis=Hypothesis.H1)
        assert swept == [exact_counts(p, g, Hypothesis.H1) for p, g in zip(plans, grids)]
        redecodes = RedecodeSpy(monkeypatch)
        (roc,) = sweep_trials(plans[1:2])
        assert roc == exact_counts(plans[1], two_pilot_grid(plans[1]))
        assert 0 < len(redecodes.trials) < 0.05 * plans[1].n_trials  # few are undecided

    @pytest.mark.parametrize("case", list(BOUNDED_CASES))
    @pytest.mark.parametrize("n_elements", [8, 256])
    def test_bound_holds(self, scenario, case, n_elements):
        plan = bounded_plan(replace(scenario, n_elements=n_elements, lq_db=20.0), case, 4,
                            n=1000)
        approx = mc._decode(plan, range(1000), None, mc._enrollment(plan), exact=False)
        a, e = mc._bounded_score(plan, approx, {})
        exact = score(plan, decode(plan, range(1000)))
        assert np.all(np.abs(a - exact) <= e)
        assert np.all(a - e <= exact) and np.all(exact <= a + e)  # the rounded ends too
        assert np.all(a != exact)  # the approximation is not the exact decode itself

    @pytest.mark.parametrize("feature", [Feature.CIR_PHASE, Feature.CIR_MAGNITUDE])
    def test_bound_holds_where_the_gain_cancels(self, scenario_small, feature):
        # direct-link gains h that sigma_n noise cancels to within the decodes' distance of 0:
        # the exact and the single-precision observed gains point opposite ways, so their
        # phases differ by pi, which only the bound's pi where the disc holds the origin covers
        plan = cir_plan(scenario_small, feature, n=4, ris=False)
        c = 1e-3 * np.exp(1j * np.array([0.3, 1.9, 3.5, 5.1]))
        unit, sigma_n = c / np.abs(c), plan.scenario.noise_sigma
        noise = -(c + 1e-12 * unit) / sigma_n  # the exact gain is -1e-12 along unit
        ones = np.ones((4, 1), complex)
        exact = mc.Draws(np.zeros(4, bool), noise, c[:, None], ones, unit[:1], ones[0])
        # single precision: h off by 4e-7 of itself, within t r of each Box-Muller value
        power = np.stack([2.0 * np.abs(c) ** 2, np.full(4, 2.0 / plan.scenario.sigma_g_sq),
                          2.0 * np.abs(noise) ** 2], axis=1)
        approx = replace(exact, h=exact.h * (1.0 + 4e-7), trials=np.arange(4), power=power)
        a, e = mc._bounded_score(plan, approx, {})
        want = score(plan, exact)
        assert np.all(a - e <= want) and np.all(want <= a + e)
        if feature is Feature.CIR_PHASE:  # gt = unit[0]: the two gains straddle the origin
            assert np.max(np.abs(a - want)) > 3.0

    @pytest.mark.parametrize("case", ["magnitude-refading", "magnitude-direct"])
    @pytest.mark.parametrize("n_elements", [8, 256])
    def test_redecoded_rows_equal_the_chunk_rows(self, scenario, case, n_elements):
        plan = bounded_plan(replace(scenario, n_elements=n_elements, lq_db=20.0), case, 6,
                            n=600)
        full = decode(plan, range(600))
        whole = score(plan, full)
        enrolled = mc._enrollment(plan)
        for trials in ([0], [599], [5, 6], [400, 3, 17], list(range(100, 107))):
            trials = np.array(trials)
            rows = mc._decode(plan, trials, None, enrolled)
            for got, want in [(rows.is_alice, full.is_alice[trials]), (rows.h, full.h[trials]),
                              (rows.g, full.g[trials]), (rows.noise, full.noise[trials]),
                              (score(plan, rows), whole[trials])]:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trig_error", [mc._TRIG_ERROR, 0.0])
    @pytest.mark.parametrize("n_elements,ris", [(1, True), (8, True), (256, True),
                                                (5000, True), (8, False)])
    def test_two_term_bound_dominates_the_term_by_term_one(self, scenario, monkeypatch,
                                                           trig_error, n_elements, ris):
        monkeypatch.setattr(mc, "_TRIG_ERROR", trig_error)
        rng = np.random.default_rng(n_elements)
        ends = [1e-10, 1.0, 1e6]  # each power column at both ends and between
        power = np.concatenate([10.0 ** rng.uniform(-10.0, 6.0, (3000, 3)),
                                np.array(list(itertools.product(ends, repeat=3)))])
        for sigma_n, sigma_g_sq in itertools.product([1e-8, 1e-3, 1.0, 1e4], [1e-3, 1.0, 1e3]):
            base = replace(scenario, n_elements=n_elements, sigma_g_sq=sigma_g_sq)
            lq = -10.0 * math.log10(sigma_n**2 / base.tx_power_w)
            plan = cir_plan(base.at_link_quality(lq), Feature.CIR_PHASE, n=1, ris=ris)
            assert plan.scenario.noise_sigma == pytest.approx(sigma_n)
            for size in (0.0, 1e-9, 1e3):  # no pinned cascade, and a small and a large |gt|
                do, o = mc._observed_gap(plan, power, size)
                want_do, want_o = term_by_term_gap(plan, power, size)
                assert np.all(do >= want_do) and np.all(o >= want_o)

    def test_single_precision_trig_stays_within_half_the_assumed_error(self):
        # the bound assumes the float32 cos and sin of the rounded angle lie within
        # _TRIG_ERROR of libm's double-precision values; a platform whose single-precision
        # trig errs by more than half of that fails here, loudly, not in a count
        worst, tier = single_precision_trig_error()
        assert 0.0 < worst <= mc._TRIG_ERROR / 2, f"{worst:.3e} on {tier}"

    def test_single_precision_trig_at_each_lower_simd_tier(self):
        # numpy picks a SIMD target for float32 cos and sin at run time, so a CPU with fewer
        # features runs other trig: each lower target that this CPU supports is forced in a
        # subprocess, by NPY_DISABLE_CPU_FEATURES naming the targets above it, and checked
        info = np.lib.introspect.opt_func_info(func_name="^cos$", signature="float32.*")
        targets = info["cos"]["ff"]["available"].split()  # highest first, "baseline(...)" last
        top = targets.index(info["cos"]["ff"]["current"])
        if top == len(targets) - 1:
            pytest.skip(f"float32 cos already runs its lowest target, {targets[top]}")
        code = "import json, conftest; print(json.dumps(conftest.single_precision_trig_error()))"
        path = os.pathsep.join(str(TABLE1.parents[1] / d) for d in ("src", "tests"))
        for k in range(top + 1, len(targets)):
            env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets[top:k]),
                   "PYTHONPATH": path}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            worst, tier = json.loads(out.stdout)
            assert [tier[f]["ff"]["current"] for f in ("cos", "sin")] == [targets[k]] * 2
            assert 0.0 < worst <= mc._TRIG_ERROR / 2, f"{worst:.3e} on {targets[k]}"


class TestSenderScoring:
    """A sender argument scores every row as that sender's, with the bits that a copy of the
    draws whose transmitter draw is filled with that sender gives."""

    @pytest.mark.parametrize("sender", list(Hypothesis))
    @pytest.mark.parametrize("case", ["pathloss", *BOUNDED_CASES])
    def test_equals_a_filled_copy(self, scenario_small, case, sender):
        if case == "pathloss":
            plan = pathloss_plan(scenario_small, n=700, seed=5)
        else:
            plan = bounded_plan(scenario_small, case, 5, n=700)
        draws = decode(plan, range(700))
        assert 0 < np.count_nonzero(draws.is_alice) < 700  # both senders drawn
        fill = np.full(700, sender is Hypothesis.H0)
        want = score(plan, replace(draws, is_alice=fill))
        assert mc._score(plan, draws, {}, sender).tobytes() == want.tobytes()
        # every trial of a run scored as the sender's, as empirical_distribution gives them
        assert empirical_distribution(plan, sender).tobytes() == np.sort(want).tobytes()
        if case == "pathloss":
            return
        approx = mc._decode(plan, range(700), None, mc._enrollment(plan), exact=False)
        gains = {}
        mc._bounded_score(plan, approx, gains)  # the chunk's own score, as _count_cir runs it
        got = mc._bounded_score(plan, approx, gains, sender)
        want = mc._bounded_score(plan, replace(approx, is_alice=fill), {})
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


class TestDecode:
    @pytest.mark.parametrize("kw", [dict(refade_alice=False), dict(refade_alice=True),
                                    dict(ris=False)], ids=["pinned", "refading", "no-ris"])
    @pytest.mark.parametrize("feature", [Feature.CIR_PHASE, Feature.CIR_MAGNITUDE],
                             ids=["phase", "magnitude"])
    def test_chunk_past_block_one_scores_its_slice(self, scenario_small, feature, kw):
        # a chunk's draws carry the enrollment block, whatever block the chunk starts at
        plan = cir_plan(scenario_small, feature, n=900, seed=13,
                        phases=np.linspace(0.0, 3.0, scenario_small.n_elements), **kw)
        whole = score(plan, decode(plan, range(plan.n_trials)))
        for lo, k in [(1, 1), (300, 250), (550, 350)]:
            np.testing.assert_array_equal(score(plan, decode(plan, range(lo, lo + k))),
                                          whole[lo:lo + k])

    def test_peak_memory_of_one_decode(self, scenario):
        # the uniforms (4N+4 doubles a trial) are freed before the normals are allocated:
        # 2.5 x the returned bytes on the full panel, 3.5 x while the decode held them
        plan = cir_plan(scenario, Feature.CIR_PHASE, n=1024)
        tracemalloc.start()
        try:
            draws = decode(plan, range(plan.n_trials))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in vars(draws).values() if a is not None)
        assert peak <= 2.6 * returned


class TestEmpiricalDistribution:
    def test_sorted_output(self, scenario_small):
        plan = pathloss_plan(scenario_small, n=5000)
        ts = empirical_distribution(plan, Hypothesis.H0)
        assert np.all(np.diff(ts) >= 0)

    def test_pathloss_h0_is_folded_normal(self, scenario_small):
        n = 2 * 10**5
        plan = pathloss_plan(scenario_small, n=n, seed=3)
        ts = empirical_distribution(plan, Hypothesis.H0)
        # at delta = 0 the folded-normal CDF is erf(x / (sigma sqrt 2))
        cdf = np.vectorize(math.erf)(ts / (scenario_small.noise_sigma * math.sqrt(2.0)))
        ks = np.max(np.abs(cdf - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 0.005

    def test_cir_magnitude_h0_is_rayleigh_when_pinned(self, scenario_small):
        n = 2 * 10**5
        plan = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, n=n, seed=77,
                        refade_alice=False)
        ts = empirical_distribution(plan, Hypothesis.H0)
        s = rayleigh_sigma(scenario_small.noise_sigma)
        cdf = 1.0 - np.exp(-(ts**2) / (2 * s * s))
        ks = np.max(np.abs(cdf - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 0.005

    def test_cir_phase_noiseless_match(self, scenario_small):
        # noise variance 1e-40 P: the noise falls below the last bit of the fingerprint
        quiet = replace(scenario_small, lq_db=400.0)
        plan = cir_plan(quiet, Feature.CIR_PHASE, n=2000, refade_alice=False)
        ts = empirical_distribution(plan, Hypothesis.H0)
        assert np.all(ts == 0.0)

    def test_h1_differs_from_h0(self, scenario):
        # at the shipped link quality the pathloss contrast dwarfs the noise
        plan = pathloss_plan(scenario, n=2000)
        h0 = empirical_distribution(plan, Hypothesis.H0)
        h1 = empirical_distribution(plan, Hypothesis.H1)
        assert h1.mean() > 10 * h0.mean()

    def test_refade_widens_h0_magnitude(self, scenario_small):
        base = dict(n=5000, seed=5)
        pinned = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, refade_alice=False, **base)
        refade = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, refade_alice=True, **base)
        ts_pin = empirical_distribution(pinned, Hypothesis.H0)
        ts_ref = empirical_distribution(refade, Hypothesis.H0)
        assert ts_ref.mean() > 10 * ts_pin.mean()

    def test_direct_baseline_magnitude_scale(self, scenario_small):
        # direct link: zeta - gt = c' - gt + n, conditioned on the enrolled gt
        plan = cir_plan(scenario_small, Feature.CIR_MAGNITUDE, ris=False, n=10**5, seed=11)
        gt = complex(decode(plan, range(1)).h0[0])  # the enrolled gain: the single decoded h
        ts = empirical_distribution(plan, Hypothesis.H0)
        expected_power = 1.0 + abs(gt) ** 2 + scenario_small.noise_variance
        assert np.mean(ts**2) == pytest.approx(expected_power, rel=0.05)


class HeldRowsSpy:
    """Wraps mc._HeldSearch.misses and the index-array calls of mc._decode for a test:
    records, per count (misses), each batch of trials that it re-decoded and scored exactly."""

    def __init__(self, monkeypatch):
        self.counts = []
        decode, misses = mc._decode, mc._HeldSearch.misses

        def decode_spy(plan, trials, *args):
            if not isinstance(trials, range):
                self.counts[-1].append(trials.copy())
            return decode(plan, trials, *args)

        def misses_spy(held, phases, epsilon):
            self.counts.append([])
            return misses(held, phases, epsilon)

        monkeypatch.setattr(mc, "_decode", decode_spy)
        monkeypatch.setattr(mc._HeldSearch, "misses", misses_spy)

    def last(self) -> set[int]:
        """The trials that the last count scored exactly."""
        return {t for batch in self.counts[-1] for t in batch.tolist()}


def hold(plan: TrialPlan, draws: mc.Draws, monkeypatch) -> mc._HeldSearch:
    """A _HeldSearch of synthetic draws, written as their own single-precision decode (with
    the power of their Box-Muller radii, and no trig error), whose re-decoded rows are theirs."""
    monkeypatch.setattr(mc, "_TRIG_ERROR", 0.0)
    power = np.stack([2.0 * np.sum(np.abs(draws.h) ** 2, axis=1),
                      2.0 * np.sum(np.abs(draws.g) ** 2, axis=1) / plan.scenario.sigma_g_sq,
                      2.0 * np.abs(draws.noise) ** 2], axis=1)
    monkeypatch.setattr(mc, "_decode", lambda plan, trials, hypothesis, enrolled: mc.Draws(
        draws.is_alice[trials], draws.noise[trials], draws.h[trials], draws.g[trials],
        *enrolled))
    held = mc._HeldSearch(plan)
    held.write(0, replace(draws, trials=np.arange(draws.noise.size), power=power))
    return held


def held_for(plan: TrialPlan) -> mc._HeldSearch:
    """The phase search's held draws of plan's run: its scenario, trials and seed."""
    return mc.attacker_draws(plan.scenario, plan.n_trials, plan.master_seed)


def attacker_statistics(plan: TrialPlan) -> np.ndarray:
    """Each attacker trial's statistic under plan, from a fresh exact decode."""
    return mc._score(plan, decode(plan, range(plan.n_trials)), {}, Hypothesis.H1)


def candidates(n: int, levels: int, order: str, limit: int = 60):
    """Phase vectors in a search's order: coordinate sweeps from all zeros, each element
    left at its level (levels - 1) - element % levels, or the exhaustive product."""
    values = [2.0 * math.pi * k / levels for k in range(levels)]
    if order == "exhaustive":
        yield from itertools.islice(itertools.product(values, repeat=n), limit)
        return
    current = [0.0] * n
    for elem in range(n):
        for v in values:
            yield tuple(current[:elem] + [v] + current[elem + 1:])
        current[elem] = values[(levels - 1 - elem) % levels]


# at 2^-40, pi - 2^-40 and the double above pi, epsilon - 2^-40 or epsilon + 2^-40 leaves
# (0, pi); the cone at epsilon decides them as it does every other threshold
EPSILONS = [0.0, 2.0**-40, 1e-3, 0.05, 0.4, 1.2, math.pi / 2 - 1e-6, math.pi / 2, 2.0,
            math.pi - 2.0**-40, math.pi, math.nextafter(math.pi, 4.0), 7.0]


class TestHeldSearch:
    """The phase search's held draws count each candidate's accepted trials as a fresh exact
    decode does: decided by the cone test, scored exactly inside it."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 8, 40]),
           order=st.sampled_from(["coordinate", "exhaustive"]), chunked=st.booleans(),
           m=st.sampled_from([543, 700]), lq=st.sampled_from([0.0, 20.0, 60.0]),
           epsilons=st.lists(st.sampled_from(EPSILONS), min_size=1, max_size=3))
    @settings(max_examples=30)
    def test_counts_equal_fresh_decode(self, scenario, seed, n, order, chunked, m, lq,
                                       epsilons):
        plan = cir_plan(replace(scenario, n_elements=n, lq_db=lq), Feature.CIR_PHASE, n=m,
                        seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            if chunked:  # three chunks, the last of 1 or 158 trials
                patch.setattr(mc, "_default_chunk", lambda plan: 271)
            held = held_for(plan)
        for phases in candidates(n, 3, order, limit=40):
            candidate = replace(plan, profile=PerElement(np.array(phases)))
            ts = attacker_statistics(candidate)
            for eps in epsilons:
                assert (held.misses(candidate.profile.phases, eps)
                        == np.count_nonzero(accepts(ts, eps)))

    @pytest.mark.parametrize("eps", [math.pi / 2, 2.0, 3.0, math.pi, 4.0, 1e300])
    def test_wide_thresholds_are_decided_by_the_cone(self, scenario_small, monkeypatch, eps):
        plan = cir_plan(scenario_small, Feature.CIR_PHASE, n=2000, seed=3)
        held, spy = held_for(plan), HeldRowsSpy(monkeypatch)
        for phases in itertools.islice(candidates(8, 4, "coordinate"), 6):
            candidate = replace(plan, profile=PerElement(np.array(phases)))
            ts = attacker_statistics(candidate)
            assert held.misses(candidate.profile.phases, eps) == np.count_nonzero(accepts(ts, eps))
            # above pi nothing is scored; below it, the trials near the cone's edges
            assert len(spy.last()) <= (0 if eps > math.pi else 10)
        assert (held.misses(candidate.profile.phases, math.pi) == plan.n_trials
                - np.count_nonzero(ts == math.pi))  # ties reject

    @pytest.mark.parametrize("eps", [0.0, 0.1, math.pi / 2, math.pi])
    def test_undecided_trials_are_scored_a_chunk_at_a_time(self, scenario_small, monkeypatch,
                                                            eps):
        # an infinite margin leaves every trial undecided: they are scored in batches of a
        # default chunk, whose temporaries are bounded by the chunk, not by the run
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 271)
        plan = cir_plan(replace(scenario_small, n_elements=40), Feature.CIR_PHASE, n=4000,
                        seed=13)
        held, spy = held_for(plan), HeldRowsSpy(monkeypatch)
        held.margin[:] = np.inf
        candidate = replace(plan, profile=PerElement(np.linspace(0.0, 6.0, 40)))
        ts = attacker_statistics(candidate)
        tracemalloc.start()
        try:
            assert held.misses(candidate.profile.phases, eps) == np.count_nonzero(accepts(ts, eps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [b.size for b in spy.counts[-1]] == [271] * 14 + [206]
        assert spy.last() == set(range(4000))
        # one batch's temporaries (its exact re-decode, at most about 82 bytes per element and
        # trial, then conj(h), einsum's and the statistic's), and 8 bytes per trial of index
        # and of the spy's copies; scoring all 4000 trials at once would take 10 MB
        assert peak < 271 * 80 * 40 + 16 * 4000 + 2**16

    @pytest.mark.parametrize("signs", [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])
    def test_zero_fingerprint(self, scenario_small, monkeypatch, signs):
        # h0 = 0, with either sign of each part, enrolls gt = 0, whose argument is 0
        m, n = 400, 3
        h0 = np.full(n, complex(0.0 * signs[0], 0.0 * signs[1]))
        monkeypatch.setattr(mc, "_enrollment", lambda plan: (h0, np.ones(n, complex)))
        plan = cir_plan(replace(scenario_small, n_elements=n), Feature.CIR_PHASE, n=m, seed=5)
        held, spy = held_for(plan), HeldRowsSpy(monkeypatch)
        for phases in candidates(n, 4, "exhaustive"):
            candidate = replace(plan, profile=PerElement(np.array(phases)))
            assert mc._fingerprint(held.enrolled, candidate.profile.phases) == 0.0
            ts = attacker_statistics(candidate)
            for eps in (0.0, 1e-2, 0.5, 2.0):
                assert (held.misses(candidate.profile.phases, eps)
                        == np.count_nonzero(accepts(ts, eps)))
                if eps == 1e-2:  # the cone decides all but a few
                    assert len(spy.last()) < 20

    @pytest.mark.parametrize("chunk", [None, 271])
    def test_threshold_on_a_statistic_and_one_ulp_either_side(self, scenario_small,
                                                               monkeypatch, chunk):
        plan = cir_plan(scenario_small, Feature.CIR_PHASE, n=1500, seed=21)
        if chunk:
            monkeypatch.setattr(mc, "_default_chunk", lambda plan: chunk)
        held, spy = held_for(plan), HeldRowsSpy(monkeypatch)
        for phases in itertools.islice(candidates(8, 4, "coordinate"), 0, 20, 3):
            candidate = replace(plan, profile=PerElement(np.array(phases)))
            ts = attacker_statistics(candidate)
            order = np.argsort(ts, kind="stable")
            for trial in (order[0], order[7], order[400], order[np.searchsorted(ts[order], 1.4)]):
                s = ts[trial]
                for eps in (np.nextafter(s, 0.0), s, np.nextafter(s, math.inf)):
                    assert (held.misses(candidate.profile.phases, float(eps))
                            == np.count_nonzero(ts < eps))
                    assert trial in spy.last()
            assert len(spy.last()) < plan.n_trials // 2  # the cone decided most

    def test_cancelling_terms_are_scored_exactly(self, scenario_small, monkeypatch):
        # terms of modulus 1e8 that cancel to about 1 where elements 0 and 1 share a phase:
        # the cascade's rounding, about 1e-8, and the decodes' distance, which scales with the
        # terms too, turn its argument by far more than 2^-40, and only the margin keeps a
        # trial at the threshold out of the cone's rejections
        rng = np.random.default_rng(11)
        m, n = 300, 3
        big = 1e8 * np.exp(2j * math.pi * rng.random(m))
        small = rng.standard_normal((m, 2)) @ np.array([1.0, 1j])
        g = np.stack([big, small - big, rng.standard_normal(m) + 1j], axis=1)
        draws = mc.Draws(np.zeros(m, bool), rng.standard_normal(m) + 0j, np.ones((m, n), complex),
                         g, np.ones(n, complex), np.ones(n, complex))
        plan = cir_plan(replace(scenario_small, n_elements=n, lq_db=60.0), Feature.CIR_PHASE,
                        n=m)
        held, spy = hold(plan, draws, monkeypatch), HeldRowsSpy(monkeypatch)
        for phases in candidates(n, 3, "exhaustive"):
            candidate = replace(plan, profile=PerElement(np.array(phases)))
            ts = score(candidate, draws)
            for trial in np.flatnonzero(ts < 1.5)[:12]:
                for eps in (np.nextafter(ts[trial], 0.0), ts[trial], np.nextafter(ts[trial], 4.0)):
                    assert (held.misses(candidate.profile.phases, float(eps))
                            == np.count_nonzero(ts < eps))
                    assert trial in spy.last()

    @pytest.mark.parametrize("chunk", [None, 271])
    def test_holds_what_nbytes_counts(self, scenario_small, monkeypatch, chunk):
        plan = cir_plan(scenario_small, Feature.CIR_PHASE, n=3000, seed=23)
        if chunk:  # 12 chunks, the last short, written into arrays of the whole run
            monkeypatch.setattr(mc, "_default_chunk", lambda plan: chunk)
        held = held_for(plan)
        assert held.c.shape == (8, 3000) and not {"h", "g"} & set(vars(held))
        arrays = [held.c, held.noise, held.cascade, held.turned, held.margin, held.flags]
        index = 8 * 3000  # of the undecided trials, at most all of them
        assert sum(a.nbytes for a in arrays) + index == mc._HeldSearch.nbytes(3000, 8)
        candidate = replace(plan, profile=PerElement(np.linspace(0.0, 3.0, 8)))
        ts = attacker_statistics(candidate)
        assert held.misses(candidate.profile.phases, 0.3) == np.count_nonzero(ts < 0.3)

    @pytest.mark.parametrize("chunk", [None, 271])
    @pytest.mark.parametrize("lq", [0.0, 20.0, 40.0])
    @pytest.mark.parametrize("n", [1, 3, 8, 40, 256])
    def test_gain_lies_within_its_margin_of_the_exact_decode(self, scenario, monkeypatch, n,
                                                            lq, chunk):
        # B, summed and updated from the single-precision planes and restarted from the noise,
        # against fl(einsum cascade + sigma_n noise) of a fresh exact decode
        plan = cir_plan(replace(scenario, n_elements=n, lq_db=lq), Feature.CIR_PHASE, n=543,
                        seed=n)
        if chunk:  # two chunks, the second short
            monkeypatch.setattr(mc, "_default_chunk", lambda plan: chunk)
        held = held_for(plan)
        held.limit = n + 6  # a restart every few candidates; the margin was sized for 4096 + N
        exact, restarts, updates = decode(plan, range(543)), 0, 0
        for phases in itertools.islice(itertools.cycle(candidates(n, 3, "coordinate")), 30):
            candidate = replace(plan, profile=PerElement(np.array(phases)))
            held.misses(candidate.profile.phases, 7.0)  # above pi: B updated, nothing scored
            restarts, updates = restarts + (held.updates <= updates), held.updates
            observed = mc._received(candidate, exact, {}, Hypothesis.H1)[0]
            assert np.all(np.abs(held.cascade - observed) <= held.margin)
        assert restarts >= 2

    @pytest.mark.parametrize("lq", [0.0, 20.0, 40.0])
    def test_gain_lies_within_its_margin_through_the_update_limit(self, scenario, monkeypatch,
                                                                  lq):
        # exactly decoded planes and no trig error leave the decode-error term rounding only,
        # so it is the rounding-and-drift term that covers B after 4096 rank-1 updates
        plan = cir_plan(replace(scenario, n_elements=1, lq_db=lq), Feature.CIR_PHASE, n=2000)
        exact = decode(plan, range(2000))
        held, rng = hold(plan, exact, monkeypatch), np.random.default_rng(17)
        for _ in range(4096):  # one update each, within the default limit of N + 4096
            candidate = replace(plan, profile=PerElement(rng.uniform(0.0, 2.0 * math.pi, 1)))
            held.misses(candidate.profile.phases, 7.0)  # above pi: B updated, nothing scored
            observed = mc._received(candidate, exact, {}, Hypothesis.H1)[0]
            assert np.all(np.abs(held.cascade - observed) <= held.margin)
        assert held.updates == 4096

    def test_undecided_trials_are_redecoded(self, scenario_small, monkeypatch):
        # the search holds no h or g: each batch of trials that a count scores exactly is
        # re-decoded from their counter positions
        plan = cir_plan(scenario_small, Feature.CIR_PHASE, n=1500, seed=21)
        held = held_for(plan)
        assert not {"h", "g"} & set(vars(held))
        redecodes, spy = RedecodeSpy(monkeypatch), HeldRowsSpy(monkeypatch)
        for phases in itertools.islice(candidates(8, 4, "coordinate"), 0, 20, 5):
            candidate = replace(plan, profile=PerElement(np.array(phases)))
            ts = attacker_statistics(candidate)
            s = float(np.sort(ts)[400])
            redecodes.batches.clear()
            assert held.misses(candidate.profile.phases, s) == np.count_nonzero(ts < s)
            assert np.flatnonzero(ts == s)[0] in spy.last()
            assert [b.tolist() for b in redecodes.batches] == [b.tolist() for b in spy.counts[-1]]

    def test_restarts_after_its_update_limit(self, scenario_small, monkeypatch):
        plan = cir_plan(scenario_small, Feature.CIR_PHASE, n=800, seed=9)
        held = held_for(plan)
        held.limit = 12  # a restart every few candidates; the margin was sized for 4096 + N
        updates = []
        for phases in itertools.islice(candidates(8, 4, "coordinate"), 25):
            candidate = replace(plan, profile=PerElement(np.array(phases)))
            ts = attacker_statistics(candidate)
            assert held.misses(candidate.profile.phases, 0.2) == np.count_nonzero(ts < 0.2)
            updates.append(held.updates)
        assert max(updates) <= 12 and updates.count(8) >= 3  # each restart adds all 8


class TestPathlossPairs:
    """A pathloss pair depends on the geometry, gradient and baseline, not the link quality."""

    @pytest.mark.parametrize("call", ["sweep", "roc-auto-grid"])
    def test_one_pair_per_baseline(self, scenario, monkeypatch, call):
        calls = []
        real = mc.pathloss_pair

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "pathloss_pair", counting)
        seen = []
        # 1000 trials are one default chunk, 1.1e6 trials two or more
        for n, lqs in [(1000, [60.0]), (1_100_000, [60.0]), (1_100_000, [50.0, 75.0, 100.0])]:
            plans = [pathloss_plan(replace(scenario, lq_db=lq), n=n, ris=ris)
                     for ris in (True, False) for lq in lqs]
            chunks = -(-n // mc._default_chunk(plans[0]))
            assert chunks == 1 if n == 1000 else chunks >= 2
            calls.clear()
            if call == "sweep":
                sweep_trials(plans, [[1e-9]] * len(plans), hypothesis=Hypothesis.H1)
            else:
                sweep_trials(plans)
            seen.append(len(calls))
        assert seen == [2, 2, 2]
