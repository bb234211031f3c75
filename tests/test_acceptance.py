"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines; each test also fails pytest when its criterion fails.
"""

import time
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rispla import mc
from rispla.auth import Feature, accepts, pfa_pathloss, pmd_pathloss, threshold_for_pfa
from rispla.channel import ScalarGradient, Scenario, ris_pathloss
from rispla.checks import CHECKS
from rispla.cli import main as cli_main
from rispla.mc import TrialPlan, sweep_trials
from rispla.optim import Strategy, default_gradient_grid, optimize_gradient, optimize_phase_matrix

SCENARIO_FILE = "scenarios/table1.cfg"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def run_check(index: int, scenario, max_s: float | None = None, digits: int = 1) -> None:
    """Registry entry `index` at 1e6 trials; a time limit adds the run time to the line."""
    name, check = CHECKS[index]
    t0 = time.perf_counter()
    ok, detail = check(scenario, 10**6)
    dt = time.perf_counter() - t0
    if max_s is not None:
        ok = ok and dt < max_s
        detail = f"{detail}, {dt:.{digits}f}s"
    report(name, ok, detail)


class TestAcceptance:
    def test_c01_pfa_closed_form_agreement(self, scenario):
        run_check(0, scenario, max_s=60.0)

    def test_c02_neyman_pearson_round_trip(self, scenario):
        run_check(1, scenario, max_s=1.0, digits=3)

    def test_c03_pmd_closed_form_agreement(self, scenario):
        run_check(2, scenario)

    def test_c04_rayleigh_magnitude_false_alarm(self, scenario):
        run_check(3, scenario)

    def test_c05_false_alarm_phase_invariance(self, scenario):
        run_check(4, scenario)

    def test_c06_zero_pmd_gradient_optimization(self, scenario):
        t0 = time.perf_counter()
        eps = threshold_for_pfa(0.05, scenario.noise_sigma)
        res = optimize_gradient(scenario, eps, default_gradient_grid(scenario, 10_000))
        dt = time.perf_counter() - t0
        pmds = np.array([row[2] for row in res.trace])
        grads = np.array([row[1] for row in res.trace])
        near_zero = pmds < 1e-6
        runs = []
        start = None
        for i, flag in enumerate(near_zero):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                runs.append((start, i - 1))
                start = None
        if start is not None:
            runs.append((start, len(near_zero) - 1))
        interior = [(a, b) for a, b in runs if a > 0 and b < len(near_zero) - 1]
        mids = [0.5 * (grads[a] + grads[b]) for a, b in interior]
        spacings = np.diff(mids)
        uniform = (spacings.size >= 1
                   and (spacings.max() - spacings.min()) / spacings.mean() <= 0.05)
        ok = res.best_pmd < 1e-6 and len(interior) >= 2 and uniform and dt < 10.0
        report("C06 zero-pmd-gradient", ok,
               f"best pmd {res.best_pmd:.2e} over 1e4 grid points, "
               f"{len(interior)} interior near-zero basins, spacings {np.round(spacings, 3)} "
               f"rad/m, {dt:.1f}s")

    def test_c07_zero_pmd_phase_optimization(self, scenario):
        sc8 = replace(scenario, n_elements=8, lq_db=20.0)
        res = optimize_phase_matrix(sc8, epsilon=1e-3, levels=16,
                                    strategy=Strategy.COORDINATE,
                                    budget_trials=10**7, rng_seed=0, eval_trials=10**4)
        misses = round(res.best_pmd * 10**4)
        sc2 = replace(scenario, n_elements=2, lq_db=20.0)
        kw = dict(epsilon=0.05, levels=4, budget_trials=10**6, rng_seed=2, eval_trials=5000)
        ex = optimize_phase_matrix(sc2, strategy=Strategy.EXHAUSTIVE, **kw)
        co = optimize_phase_matrix(sc2, strategy=Strategy.COORDINATE, **kw)
        ok = misses == 0 and co.best_pmd == ex.best_pmd
        report("C07 zero-pmd-phase", ok,
               f"N=8 L=16 coordinate descent: {misses} missed detections over 1e4 "
               f"attacker trials; N=2 L=4 coordinate {co.best_pmd:.4f} == "
               f"exhaustive {ex.best_pmd:.4f}")

    def test_c08_perfect_roc_at_optimum(self, scenario):
        sc = replace(scenario, lq_db=60.0)
        sigma = sc.noise_sigma
        eps = threshold_for_pfa(0.05, sigma)
        best = optimize_gradient(sc, eps, default_gradient_grid(sc, 2000)).best_profile
        grid = np.geomspace(sigma / 10, 20 * sigma, 40)
        plan_ris = TrialPlan(n_trials=2 * 10**5, master_seed=11, feature=Feature.PATHLOSS,
                             scenario=sc, profile=best)
        plan_no = replace(plan_ris, ris=False)
        (pfa_ris, pd_ris), (_, pd_no) = (
            counts.roc() for counts in sweep_trials([plan_ris, plan_no], [grid, grid]))
        with_alarms = pfa_ris > 0
        perfect = bool(np.all(pd_ris[with_alarms] == 1.0)) and bool(np.any(with_alarms))
        dominated = bool(np.all(pd_no <= pd_ris) and np.any(pd_no < pd_ris))
        ok = perfect and dominated
        report("C08 perfect-roc-at-optimum", ok,
               f"detection = 1 at every threshold with false alarms (pfa up to "
               f"{pfa_ris.max():.3f}); direct baseline strictly dominated "
               f"(its detection drops to {pd_no.min():.3f})")

    def test_c09_monotonicity_property_suite(self):
        t0 = time.perf_counter()
        cases = {"n": 0}

        def mk_scenario(ax, ay, ex, ey, by, lq, gain, ab):
            return Scenario(
                alice_pos=(ax, ay, 0.0), eve_pos=(ex, ey, 0.0), bob_pos=(1.0, by, 0.0),
                ris_pos=(0.0, 0.0, 0.0), ris_normal=(0.0, 1.0, 0.0),
                element_a=ab, element_b=ab, n_elements=4, frequency_hz=28e9,
                tx_gain=gain, rx_gain=gain, tx_power_w=1.0, lq_db=lq,
            )

        scenarios = st.builds(
            mk_scenario,
            ax=st.floats(-30, 30), ay=st.floats(1.0, 80),
            ex=st.floats(-30, 30), ey=st.floats(1.0, 80),
            by=st.floats(-80, -1.0),
            lq=st.floats(0, 90), gain=st.floats(1, 1e4), ab=st.floats(0.05, 1.0),
        )

        @settings(max_examples=250)
        @given(sc=scenarios)
        def prop_pfa_monotone(sc):
            cases["n"] += 1
            sigma = sc.noise_sigma
            vals = [pfa_pathloss(e, sigma) for e in np.linspace(0, 6 * sigma, 20)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

        @settings(max_examples=250)
        @given(sc=scenarios)
        def prop_pmd_monotone(sc):
            cases["n"] += 1
            sigma = sc.noise_sigma
            pl_a = ris_pathloss(sc, sc.alice_pos, 0.0)
            pl_e = ris_pathloss(sc, sc.eve_pos, 0.0)
            vals = [pmd_pathloss(e, sigma, pl_a, pl_e)
                    for e in np.linspace(0, 6 * sigma + abs(pl_e - pl_a), 20)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

        @settings(max_examples=250)
        @given(sc=scenarios, seed=st.integers(0, 2**32 - 1))
        def prop_roc_comonotone(sc, seed):
            cases["n"] += 1
            sigma = sc.noise_sigma
            pl_a = ris_pathloss(sc, sc.alice_pos, 0.0)
            pl_e = ris_pathloss(sc, sc.eve_pos, 0.0)
            hi = abs(pl_e - pl_a) + 8 * sigma
            plan = TrialPlan(n_trials=400, master_seed=seed, feature=Feature.PATHLOSS,
                             scenario=sc, profile=ScalarGradient(0.0))
            pfa, pd = sweep_trials([plan], [np.geomspace(hi * 1e-4, hi, 12)])[0].roc()
            assert np.all(np.diff(pfa) <= 0)
            assert np.all(np.diff(pd) <= 0)

        @settings(max_examples=250)
        @given(ts=st.floats(min_value=0, max_value=1e6, allow_nan=False))
        def prop_tie_rejects(ts):
            cases["n"] += 1
            assert not accepts(ts, ts)

        failure = None
        try:
            prop_pfa_monotone()
            prop_pmd_monotone()
            prop_roc_comonotone()
            prop_tie_rejects()
        except AssertionError as exc:  # pragma: no cover - report the criterion as failed
            failure = str(exc).splitlines()[0]
        dt = time.perf_counter() - t0
        ok = failure is None and cases["n"] >= 1000 and dt < 30.0
        report("C09 monotonicity-properties", ok,
               failure or f"{cases['n']} randomized cases in {dt:.1f}s")

    def test_c10_byte_identical_reruns(self, tmp_path, monkeypatch):
        # the 20 000 pathloss trials are one default chunk: split them so that both
        # workers run (5 chunks of 4000 trials)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 4000)
        specs = [
            (["sweep-pfa", "--scenario", SCENARIO_FILE, "--target-pfa", "0.05",
              "--lq-grid", "0:10:30", "--trials", "20000", "--seed", "6"], True),
            (["roc", "--scenario", SCENARIO_FILE, "--feature", "cir-magnitude",
              "--trials", "10000", "--seed", "6", "--epsilons", "0.01,0.1,1,10"], True),
            (["optimize-gradient", "--scenario", SCENARIO_FILE, "--target-pfa", "0.05",
              "--grid", "0:40:300"], False),
            (["optimize-phases", "--scenario", SCENARIO_FILE, "--epsilon", "0.05",
              "--levels", "4", "--budget", "40000", "--eval-trials", "2000",
              "--seed", "3"], False),
        ]
        identical = True
        for i, (args, has_workers) in enumerate(specs):
            outs = []
            for run, workers in enumerate((1, 2)):
                out = tmp_path / f"cmd{i}_run{run}.csv"
                extra = ["--workers", str(workers)] if has_workers else []
                code = cli_main(args + extra + ["--output", str(out)])
                assert code == 0
                outs.append(out.read_bytes())
            identical &= outs[0] == outs[1]
        report("C10 determinism", identical,
               f"{len(specs)} commands rerun (including worker counts 1 vs 2) "
               "produced byte-identical CSV")
