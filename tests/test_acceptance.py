"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines; each test also fails pytest when its criterion fails.
C01-C08 are the registry's (rispla.checks.CHECKS), which `rispla validate`
also runs. C09 draws its cases with hypothesis, a test-only dependency, and
C10 runs the CLI on temporary files, so both stay here.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispla import mc
from rispla.auth import Feature, accepts, pfa_pathloss, pmd_pathloss
from rispla.channel import ScalarGradient, Scenario, ris_pathloss
from rispla.checks import CHECKS
from rispla.cli import main as cli_main
from rispla.mc import TrialPlan, sweep_trials

SCENARIO_FILE = "scenarios/table1.cfg"
# a registry criterion's time limit in seconds, and the digits its run time is printed with
TIME_LIMITS = {"C01": (60.0, 1), "C02": (1.0, 3), "C06": (10.0, 1)}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


class TestAcceptance:
    @pytest.mark.parametrize("name, check", CHECKS, ids=[name[:3] for name, _ in CHECKS])
    def test_registry_criterion(self, scenario, name, check):
        t0 = time.perf_counter()
        ok, detail = check(scenario, 10**6)
        dt = time.perf_counter() - t0
        if name[:3] in TIME_LIMITS:
            max_s, digits = TIME_LIMITS[name[:3]]
            ok, detail = ok and dt < max_s, f"{detail}, {dt:.{digits}f}s"
        report(name, ok, detail)

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
