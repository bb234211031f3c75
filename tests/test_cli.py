"""CLI contract tests: schemas, byte-identity, exit codes, baseline handling."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import TABLE1, RedecodeSpy, table1_with
from hypothesis import given
from hypothesis import strategies as st

from rispla import auth
from rispla.checks import CHECKS
from rispla.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_parser,
    main,
)

SCENARIO = "scenarios/table1.cfg"
SRC = Path(__file__).resolve().parents[1] / "src"
ZEROS_255 = ",".join(["0"] * 255)  # with one more value, a --phases for table1's 256 elements


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def run_fresh(*args) -> subprocess.CompletedProcess:
    """The CLI in a fresh process: numpy warns on stderr, outside pytest's capture."""
    return subprocess.run(
        [sys.executable, "-m", "rispla.cli", *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})


class TestSweepSchema:
    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "pfa.csv"
        code = run_cli("sweep-pfa", "--scenario", SCENARIO, "--target-pfa", 0.05,
                       "--lq-grid", "0:20:40", "--trials", 5000, "--seed", 3,
                       "--output", out)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "lq_db,threshold,analytical,empirical,half_width_95,n_trials"
        assert len(lines) == 4  # header + 3 grid points
        fields = lines[1].split(",")
        assert len(fields) == 6
        assert float(fields[0]) == 0.0
        assert abs(float(fields[2]) - 0.05) < 1e-9  # analytical column

    @pytest.mark.parametrize("args,analytical", [
        # no closed form for the magnitude missed detection
        (["sweep-pmd", "--epsilon", 0.5, "--lq-grid", "20"], None),
        # the Rayleigh false alarm holds only with Alice's channel pinned
        (["sweep-pfa", "--target-pfa", 0.05, "--lq-grid", "0,20"], None),
        (["sweep-pfa", "--target-pfa", 0.05, "--lq-grid", "0,20", "--freeze-alice"], 0.05),
    ], ids=["pmd-magnitude", "pfa-magnitude-refading", "pfa-magnitude-frozen"])
    def test_pmd_analytical_column_empty_for_cir(self, tmp_path, args, analytical):
        out = tmp_path / "out.csv"
        code = run_cli(*args, "--scenario", SCENARIO, "--feature", "cir-magnitude",
                       "--trials", 2000, "--seed", 3, "--output", out)
        assert code == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            cell = line.split(",")[2]
            if analytical is None:
                assert cell == ""
            else:
                assert abs(float(cell) - analytical) < 1e-9

    @pytest.mark.parametrize("frozen", [[], ["--freeze-alice"]], ids=["refading", "frozen"])
    @pytest.mark.parametrize("epsilon", [0.3, math.pi, 4.0])
    def test_phase_pmd_analytical_column(self, tmp_path, frozen, epsilon):
        # Eve's gain is redrawn each trial and circularly symmetric on both baselines, whatever
        # Alice's fading: the phase missed detection is min(eps, pi) / pi at every link quality
        code = run_cli("sweep-pmd", "--scenario", SCENARIO, "--feature", "cir-phase",
                       "--epsilon", epsilon, "--lq-grid", "0,20", "--trials", 2000, "--seed", 3,
                       "--baseline", "both", *frozen, "--output", tmp_path / "x.csv")
        assert code == EXIT_OK
        closed = min(epsilon, math.pi) / math.pi
        for tag in ("_ris", "_noris"):
            rows = [line.split(",") for line in
                    (tmp_path / f"x{tag}.csv").read_text().splitlines()[1:]
                    if not line.startswith("#")]
            assert len(rows) == 2
            for _, _, analytical, empirical, half_width, _ in rows:
                assert analytical == repr(closed)
                assert abs(float(empirical) - closed) <= 2.0 * float(half_width), (tag, rows)

    def test_low_confidence_flagged(self, tmp_path):
        out = tmp_path / "pfa.csv"
        run_cli("sweep-pfa", "--scenario", SCENARIO, "--epsilon", 1e-7,
                "--lq-grid", "100", "--trials", 50, "--output", out)
        assert any(line.startswith("# low_confidence_rows:")
                   for line in out.read_text().splitlines())


class TestRocSchema:
    def test_header_and_monotonicity(self, tmp_path):
        out = tmp_path / "roc.csv"
        code = run_cli("roc", "--scenario", SCENARIO, "--lq-db", 60, "--trials", 20000,
                       "--seed", 5, "--output", out)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,pfa,pd"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(np.diff(data[:, 0]) > 0)
        assert np.all(np.diff(data[:, 1]) <= 0)

    def test_explicit_epsilon_grid(self, tmp_path):
        out = tmp_path / "roc.csv"
        code = run_cli("roc", "--scenario", SCENARIO, "--epsilons", "1e-6,1e-5,1e-4",
                       "--trials", 2000, "--output", out)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4

    def test_log_epsilon_grid(self, tmp_path):
        out = tmp_path / "roc.csv"
        code = run_cli("roc", "--scenario", SCENARIO, "--epsilons", "log:1e-7:1e-4:4",
                       "--trials", 2000, "--output", out)
        assert code == EXIT_OK
        epsilons = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert epsilons == [repr(e) for e in np.geomspace(1e-7, 1e-4, 4).tolist()]

    def test_auto_grid_decodes_each_chunk_once(self, tmp_path, monkeypatch):
        from rispla import mc

        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 2 chunks
        calls = []
        real = mc._uniform_blocks

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "_uniform_blocks", counting)
        redecodes = RedecodeSpy(monkeypatch)
        code = run_cli("roc", "--scenario", SCENARIO, "--feature", "cir-phase",
                       "--trials", 3000, "--output", tmp_path / "roc.csv")
        assert code == EXIT_OK
        # each chunk's trials and the enrollment block once; and each trial that the bound
        # leaves undecided, from its own block
        assert [args for args in calls if args[2] == 0 or args[3] > 1] == [
            (1, 1028, 0, 1), (1, 1028, 1, 1500), (1, 1028, 1501, 1500)]
        assert len(calls) == 3 + len(redecodes.trials)


class TestOptimizeOutputs:
    def test_gradient_trace_and_summary(self, tmp_path):
        out = tmp_path / "grad.csv"
        code = run_cli("optimize-gradient", "--scenario", SCENARIO, "--target-pfa", 0.05,
                       "--grid", "0:50:500", "--output", out)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "coordinate,value,pmd"
        assert len(lines) == 501
        summary = (tmp_path / "grad_summary.csv").read_text().splitlines()
        assert summary[0] == "best_pmd,evaluations,best_profile"
        best_pmd, evals, profile = summary[1].split(",")
        assert float(best_pmd) < 1e-6
        assert int(evals) == 500

    def test_huge_threshold_misses_everything_quietly(self, tmp_path):
        # (x -+ delta) / (sigma * sqrt 2) overflows to +-inf, whose erf is +-1: pmd 1, no warning
        out = tmp_path / "grad.csv"
        proc = run_fresh("optimize-gradient", "--scenario", SCENARIO, "--epsilon", 1e308,
                         "--grid", "0:40:3", "--output", out)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        summary = (tmp_path / "grad_summary.csv").read_text().splitlines()
        assert summary[1].split(",")[0] == "1.0"

    @pytest.mark.parametrize("command,analytical", [("sweep-pfa", "0.0"), ("sweep-pmd", "1.0")])
    def test_huge_threshold_sweep_writes_its_limit_quietly(self, tmp_path, command, analytical):
        # epsilon / sigma overflows to inf: the false alarm is 2 Q(inf) = 0, the missed
        # detection 1, each with exit 0 and no warning
        out = tmp_path / "sweep.csv"
        proc = run_fresh(command, "--scenario", SCENARIO, "--epsilon", 1e308, "--lq-grid", 100,
                         "--trials", 30, "--output", out)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        row = out.read_text().splitlines()[1].split(",")
        assert row[1:3] == ["1e+308", analytical]

    def test_phase_trace_and_summary(self, tmp_path):
        out = tmp_path / "ph.csv"
        code = run_cli("optimize-phases", "--scenario", SCENARIO, "--epsilon", 0.3,
                       "--levels", 4, "--budget", 100000, "--eval-trials", 1000,
                       "--seed", 2, "--output", out)
        # shipped scenario has 256 elements; budget stops the sweep early
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "coordinate,value,pmd"
        summary = (tmp_path / "ph_summary.csv").read_text().splitlines()[1]
        phases = summary.split(",")[2].split(";")
        assert len(phases) == 256


    @pytest.mark.parametrize("epsilon,closed", [(0.3, "0.0955"), (3.0, "0.955"), (5.0, "1")])
    def test_phase_line_reports_the_closed_form(self, tmp_path, capsys, epsilon, closed):
        # the phase missed detection is min(eps, pi) / pi for every profile: the line puts it
        # next to the in-sample best, and the CSVs do not carry it
        out = tmp_path / "ph.csv"
        code = run_cli("optimize-phases", "--scenario", SCENARIO, "--epsilon", epsilon,
                       "--levels", 2, "--budget", 3000, "--eval-trials", 1000, "--seed", 4,
                       "--output", out)
        assert code == EXIT_OK
        best = float((tmp_path / "ph_summary.csv").read_text().splitlines()[1].split(",")[0])
        assert capsys.readouterr().out == (
            f"best pmd {best:.3g} in sample, closed form min(eps, pi)/pi {closed}, "
            "after 3 evaluations (3000 trials)\n")


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-pfa", "--scenario", SCENARIO, "--target-pfa", 0.1,
                "--lq-grid", "0:10:20", "--trials", 4000, "--seed", 9]
        run_cli(*args, "--output", a)
        run_cli(*args, "--output", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("grid", [["--epsilons", "0.01,0.1,1.0"], []],
                             ids=["given-grid", "auto-grid"])
    def test_workers_byte_identical(self, tmp_path, monkeypatch, grid):
        from rispla import mc

        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1500)  # 3 chunks, on 2 threads
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["roc", "--scenario", SCENARIO, "--trials", 4000, "--seed", 9,
                "--feature", "cir-magnitude", *grid]
        run_cli(*args, "--workers", 1, "--output", a)
        run_cli(*args, "--workers", 2, "--output", b)
        assert a.read_bytes() == b.read_bytes()


class TestPeakMemory:
    """A run holds a few cache-sized chunks of draws at a time, not a share of its trials."""

    @pytest.mark.parametrize("args", [
        ["roc", "--feature", "cir-phase", "--trials", 8200],
        ["sweep-pmd", "--feature", "cir-magnitude", "--epsilon", 0.5, "--lq-grid", "0,20",
         "--trials", 16320, "--workers", 2],
    ], ids=["roc-pilot-over-every-chunk", "sweep-two-workers"])
    def test_traced_peak_below_24_mib(self, tmp_path, args):
        # numpy's buffers report to tracemalloc, from the pool's threads too
        tracemalloc.start()
        try:
            code = run_cli(args[0], "--scenario", SCENARIO, *args[1:], "--output",
                           tmp_path / "x.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 24 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestBaselines:
    def test_both_writes_two_files(self, tmp_path):
        out = tmp_path / "pfa.csv"
        code = run_cli("sweep-pfa", "--scenario", SCENARIO, "--target-pfa", 0.05,
                       "--lq-grid", "0:20:40", "--trials", 20000, "--seed", 4,
                       "--baseline", "both", "--output", out)
        assert code == EXIT_OK
        ris = (tmp_path / "pfa_ris.csv").read_text().splitlines()
        noris = (tmp_path / "pfa_noris.csv").read_text().splitlines()
        # false alarm does not depend on the link type: agreement within 3 combined se
        for row_r, row_n in zip(ris[1:], noris[1:]):
            fr, fn = row_r.split(","), row_n.split(",")
            gap = abs(float(fr[3]) - float(fn[3]))
            se = math.hypot(float(fr[4]), float(fn[4])) / 1.96
            assert gap <= 3 * se

    def test_pmd_zero_at_optimized_gradient(self, tmp_path):
        out = tmp_path / "pmd.csv"
        run_cli("sweep-pmd", "--scenario", SCENARIO, "--target-pfa", 0.05,
                "--gradient", 0.0, "--lq-grid", "50:10:100", "--trials", 20000,
                "--seed", 2, "--output", out)
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) == 0.0  # empirical column

    def test_one_pathloss_pair_per_baseline(self, tmp_path, monkeypatch):
        # the pair depends on the geometry, gradient and baseline, not on the link quality:
        # the engine and the analytical column each compute it once per baseline
        from rispla import cli, mc

        calls = []

        def counting(module):
            real = module.pathloss_pair

            def pair(*args):
                calls.append(module.__name__)
                return real(*args)

            monkeypatch.setattr(module, "pathloss_pair", pair)

        counting(mc)
        counting(cli)
        seen = []
        for grid in ("60", "50:10:100", "0:1:100"):
            calls.clear()
            assert run_cli("sweep-pmd", "--scenario", SCENARIO, "--target-pfa", 0.05,
                           "--lq-grid", grid, "--trials", 2000, "--baseline", "both",
                           "--output", tmp_path / "pmd.csv") == EXIT_OK
            seen.append(sorted(calls))
        assert seen == [["rispla.cli"] * 2 + ["rispla.mc"] * 2] * 3

    def test_both_pathloss_baselines_decode_each_chunk_once(self, tmp_path, monkeypatch):
        from rispla import mc

        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1000)  # 3 chunks
        calls = []
        real = mc._uniform_blocks

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "_uniform_blocks", counting)
        code = run_cli("sweep-pfa", "--scenario", SCENARIO, "--target-pfa", 0.05,
                       "--lq-grid", "0:20:40", "--trials", 3000, "--baseline", "both",
                       "--output", tmp_path / "pfa.csv")
        assert code == EXIT_OK
        assert len(calls) == 3  # RIS and no-RIS share the pathloss stream: one decode

    @pytest.mark.parametrize("grid", [["--epsilons", "1e-6,1e-5"], []],
                             ids=["given-grid", "auto-grid"])
    def test_both_pathloss_roc_baselines_decode_each_chunk_once(self, tmp_path, monkeypatch,
                                                                 grid):
        from rispla import mc

        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 1000)  # 3 chunks
        calls = []
        real = mc._decode

        def counting(plan, trials, *args):
            calls.append((trials.start + 1, len(trials)))  # the chunk's first block and size
            return real(plan, trials, *args)

        monkeypatch.setattr(mc, "_decode", counting)
        code = run_cli("roc", "--scenario", SCENARIO, "--trials", 3000, "--baseline", "both",
                       *grid, "--output", tmp_path / "roc.csv")
        assert code == EXIT_OK
        # RIS and no-RIS share the pathloss stream: each chunk is decoded once for both, and
        # so is the auto grid's pilot, decoded first
        pilot = [(1, 3000)] if not grid else []
        assert calls == [*pilot, (1, 1000), (1001, 1000), (2001, 1000)]

    @pytest.mark.parametrize("feature,trials,lq", [("pathloss", 20000, 60), ("cir-phase", 1000, 20)])
    @pytest.mark.parametrize("grid", [["--epsilons", "log:1e-9:3:40"], []],
                             ids=["given-grid", "auto-grid"])
    def test_roc_both_equals_separate_baselines(self, tmp_path, feature, trials, lq, grid):
        args = ["roc", "--scenario", SCENARIO, "--feature", feature, "--trials", trials,
                "--lq-db", lq, "--seed", 6, *grid]
        assert run_cli(*args, "--baseline", "both", "--output", tmp_path / "roc.csv") == EXIT_OK
        for baseline, tag in [("ris", "_ris"), ("no-ris", "_noris")]:
            alone = tmp_path / f"alone{tag}.csv"
            assert run_cli(*args, "--baseline", baseline, "--output", alone) == EXIT_OK
            assert (tmp_path / f"roc{tag}.csv").read_bytes() == alone.read_bytes()
        assert (tmp_path / "roc_ris.csv").read_bytes() != (tmp_path / "roc_noris.csv").read_bytes()

    @pytest.mark.parametrize("feature,pools", [("pathloss", 1), ("cir-magnitude", 2)])
    def test_one_pool_per_random_stream(self, tmp_path, monkeypatch, feature, pools):
        from concurrent.futures import ThreadPoolExecutor

        from rispla import mc

        built = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(mc, "_default_chunk", lambda plan: 400)  # 3 chunks a stream
        code = run_cli("sweep-pmd", "--scenario", SCENARIO, "--feature", feature,
                       "--target-pfa", 0.05, "--lq-grid", "0,20", "--trials", 1000,
                       "--workers", 2, "--baseline", "both", "--output", tmp_path / "pmd.csv")
        assert code == EXIT_OK
        # the CIR baselines decode one element per trial without the panel, N with it
        assert len(built) == pools

    def test_no_ris_pathloss_uses_friis(self, tmp_path, scenario):
        from rispla.auth import pmd_pathloss, threshold_for_pfa
        from rispla.channel import fspl

        out = tmp_path / "pmd.csv"
        run_cli("sweep-pmd", "--scenario", SCENARIO, "--target-pfa", 0.05,
                "--lq-grid", "60", "--trials", 2000, "--baseline", "no-ris",
                "--output", out)
        row = out.read_text().splitlines()[1].split(",")
        sc = replace(scenario, lq_db=60.0)
        eps = threshold_for_pfa(0.05, sc.noise_sigma)
        expected = pmd_pathloss(eps, sc.noise_sigma,
                                fspl(sc.alice_pos, sc.bob_pos, sc),
                                fspl(sc.eve_pos, sc.bob_pos, sc))
        assert float(row[2]) == pytest.approx(expected, rel=1e-12)


class TestPerCommandWork:
    """A sweep pays once per command for what its link qualities share: the scenario file's
    checks, the Newton solve for --target-pfa's quantile, a baseline's pathloss pair
    (TestBaselines), and each closed-form column is one elementwise call that gives every
    row the bits of the scalar closed form at that row's link quality."""

    @pytest.mark.parametrize("command,feature,extra", [
        ("sweep-pfa", "pathloss", []),
        ("sweep-pmd", "pathloss", []),
        ("sweep-pfa", "cir-magnitude", ["--freeze-alice"]),
        ("sweep-pfa", "cir-magnitude", []),
        ("sweep-pmd", "cir-magnitude", []),
    ], ids=["pfa-pathloss", "pmd-pathloss", "pfa-magnitude-frozen", "pfa-magnitude-refading",
            "pmd-magnitude"])
    def test_101_points_check_the_file_once_and_match_the_scalar_forms(
            self, tmp_path, monkeypatch, command, feature, extra):
        from rispla import channel, specfun
        from rispla.channel import load_scenario, pathloss_pair

        loaded = load_scenario(TABLE1)  # before counting: the reference scenarios below
        counted = {"__post_init__": 0, "q_inv": 0}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                counted[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(channel.Scenario, "__post_init__")
        counting(specfun, "q_inv")
        monkeypatch.setattr(auth, "q_inv", specfun.q_inv)  # auth's own name for it
        code = run_cli(command, "--scenario", SCENARIO, "--feature", feature, *extra,
                       "--target-pfa", 0.05, "--lq-grid", "0:1:100", "--trials", 40,
                       "--baseline", "both", "--output", tmp_path / "x.csv")
        assert code == EXIT_OK
        assert counted["__post_init__"] == 1  # the file's load
        assert counted["q_inv"] == (feature == "pathloss")
        monkeypatch.undo()
        for tag, ris in (("_ris", True), ("_noris", False)):
            rows = [line.split(",") for line in
                    (tmp_path / f"x{tag}.csv").read_text().splitlines()[1:]
                    if not line.startswith("#")]
            assert len(rows) == 101
            pl_a, pl_e = pathloss_pair(loaded, 0.0, ris)
            for lq, threshold, analytical, *_ in rows:
                sigma = replace(loaded, lq_db=float(lq)).noise_sigma
                if feature == "pathloss":
                    eps = auth.threshold_for_pfa(0.05, sigma)
                    expected = (auth.pfa_pathloss(eps, sigma) if command == "sweep-pfa"
                                else auth.pmd_pathloss(eps, sigma, pl_a, pl_e))
                else:
                    eps = auth.threshold_for_pfa_magnitude(0.05, sigma)
                    expected = (auth.pfa_cir_magnitude(eps, auth.rayleigh_sigma(sigma))
                                if extra else None)
                assert float(threshold) == eps  # repr round-trips: equal floats, equal bits
                assert analytical == ("" if expected is None else repr(expected))


def reference_csv(header, rows, comments=()):
    """CSV text as a join per cell and per row writes it."""
    lines = [",".join(["" if v is None else repr(v) for v in row]) for row in rows]
    return "\n".join([header, *lines, *comments, ""])


class TestCsvText:
    @given(st.lists(st.tuples(st.integers(-10**30, 10**30) | st.none(),
                              st.floats(allow_nan=True, allow_infinity=True),
                              st.floats(width=32) | st.none()), max_size=30),
           st.lists(st.sampled_from(["# low_confidence_rows: 1,2", "# x"]), max_size=2))
    def test_equals_a_join_per_row(self, rows, comments):
        from rispla.cli import _csv

        assert _csv("a,b,c", rows, comments) == reference_csv("a,b,c", rows, comments)


class TestSharedParser:
    """main() parses with one parser built when rispla.cli is imported; no call leaves
    anything in it that the next call reads."""

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        from rispla import cli

        def refused():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refused)
        assert run_cli("sweep-pfa", "--scenario", SCENARIO, "--epsilon", 1e-5,
                       "--lq-grid", "0", "--trials", 10, "--output", tmp_path / "x.csv") == EXIT_OK

    def test_phases_of_one_run_do_not_reach_the_next(self, tmp_path, monkeypatch):
        from rispla import mc

        profiles = []
        real = mc.sweep_trials

        def recording(plans, *args, **kwargs):
            profiles.append(plans[0].profile.phases)
            return real(plans, *args, **kwargs)

        monkeypatch.setattr(mc, "sweep_trials", recording)
        args = ["sweep-pmd", "--scenario", SCENARIO, "--feature", "cir-phase", "--epsilon", 0.5,
                "--lq-grid", "20", "--trials", 20, "--output", tmp_path / "x.csv"]
        assert run_cli(*args, "--phases", ",".join(["1.5"] * 256)) == EXIT_OK
        assert run_cli(*args) == EXIT_OK
        assert np.all(profiles[0] == 1.5)
        assert profiles[1].tobytes() == np.zeros(256).tobytes()

    def test_usage_error_then_a_run_writes_what_a_fresh_process_writes(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep-pfa", "--scenario", SCENARIO, "--target-pfa", 0.05,
                    "--trials", 0, "--output", tmp_path / "bad.csv")
        assert exc.value.code == EXIT_USAGE
        args = ["sweep-pmd", "--scenario", SCENARIO, "--target-pfa", 0.05,
                "--lq-grid", "50:10:100", "--trials", 3000, "--seed", 4, "--baseline", "both"]
        assert run_cli(*args, "--output", tmp_path / "here.csv") == EXIT_OK
        proc = run_fresh(*args, "--output", tmp_path / "fresh.csv")
        assert proc.returncode == EXIT_OK, proc.stderr
        for tag in ("_ris", "_noris"):
            assert ((tmp_path / f"here{tag}.csv").read_bytes()
                    == (tmp_path / f"fresh{tag}.csv").read_bytes())
        assert not (tmp_path / "bad.csv").exists()

    def test_default_lq_grid_is_a_new_list_per_parse(self):
        from rispla import cli

        argv = ["sweep-pfa", "--scenario", SCENARIO, "--epsilon", "1", "--output", "x.csv"]
        first = cli._PARSER.parse_args(argv).lq_grid
        first.append(1e9)  # a run that changed its list would change nothing of the next
        second = cli._PARSER.parse_args(argv).lq_grid
        assert second is not first
        assert second == [float(lq) for lq in range(0, 41, 2)]


class TestExitCodes:
    def test_malformed_scenario_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alice_pos = 1, 2\n")
        code = run_cli("sweep-pfa", "--scenario", bad, "--epsilon", 1.0,
                       "--lq-grid", "0", "--output", tmp_path / "x.csv")
        assert code == EXIT_USAGE
        assert ":1:" in capsys.readouterr().err

    def test_epsilon_and_target_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep-pfa", "--scenario", SCENARIO, "--epsilon", 1.0,
                    "--target-pfa", 0.05, "--lq-grid", "0", "--output", tmp_path / "x.csv")
        assert exc.value.code == EXIT_USAGE

    def test_target_pfa_refused_for_phase_feature(self, tmp_path):
        code = run_cli("sweep-pfa", "--scenario", SCENARIO, "--feature", "cir-phase",
                       "--target-pfa", 0.05, "--lq-grid", "0", "--trials", 100,
                       "--output", tmp_path / "x.csv")
        assert code == EXIT_USAGE

    def test_exhaustive_guard_is_runtime_error(self, tmp_path):
        code = run_cli("optimize-phases", "--scenario", SCENARIO, "--epsilon", 0.1,
                       "--strategy", "exhaustive", "--output", tmp_path / "x.csv")
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("levels", [16, 10**20])
    def test_exhaustive_guard_names_the_count_as_a_power(self, tmp_path, capsys, levels):
        # levels^256 candidates: 309 digits at 16 levels, past Python's int-to-str limit at 1e20
        code = run_cli("optimize-phases", "--scenario", SCENARIO, "--epsilon", 0.1,
                       "--strategy", "exhaustive", "--levels", levels,
                       "--output", tmp_path / "x.csv")
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"needs {levels}^256 candidate evaluations" in err
        assert "limit 1000000" in err and "use the coordinate strategy" in err
        assert list(tmp_path.iterdir()) == []

    def test_draws_limit_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        # a search holds 16 * 256 + 82 bytes a trial on 256 elements (the products conj(h) g,
        # noise and the cone test's arrays), refused before decoding above 2^30: 257 000 is
        # the first; nothing is held or decoded
        from rispla import mc

        def decoding(*args, **kwargs):
            raise AssertionError("held or decoded past the limit")

        monkeypatch.setattr(mc._HeldSearch, "__init__", decoding)
        monkeypatch.setattr(mc, "_map_trials", decoding)
        for eval_trials in (10**7, 257_000):
            t0 = time.perf_counter()
            code = run_cli("optimize-phases", "--scenario", SCENARIO, "--epsilon", 0.1,
                           "--eval-trials", eval_trials, "--budget", 10**7,
                           "--output", tmp_path / "x.csv")
            assert code == EXIT_RUNTIME
            assert time.perf_counter() - t0 < 5.0
            assert f"need {eval_trials * (16 * 256 + 82)} bytes" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_unwritable_output(self):
        code = run_cli("sweep-pfa", "--scenario", SCENARIO, "--epsilon", 1.0,
                       "--lq-grid", "0", "--trials", 100,
                       "--output", "/nonexistent-dir/x.csv")
        assert code == EXIT_RUNTIME

    def test_validate_passes_at_reduced_scale(self, capsys):
        code = run_cli("validate", "--scenario", SCENARIO, "--trials", 30000)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("PASS") == len(CHECKS) and "FAIL" not in out

    def test_validate_fails_cleanly_on_too_few_trials(self, capsys):
        # one trial leaves a hypothesis without trials: a failed criterion, not a crash
        code = run_cli("validate", "--scenario", SCENARIO, "--trials", 1)
        out = capsys.readouterr().out
        assert code == EXIT_VALIDATION
        assert out.count("PASS") + out.count("FAIL") == len(CHECKS)

    def test_registry_holds_every_criterion_in_order(self):
        assert [name for name, _ in CHECKS] == [
            "C01 pfa-closed-form", "C02 neyman-pearson-round-trip", "C03 pmd-closed-form",
            "C04 rayleigh-magnitude-false-alarm", "C05 false-alarm-phase-invariance",
            "C06 zero-pmd-gradient", "C07 zero-pmd-phase", "C08 perfect-roc-at-optimum"]

    @pytest.mark.parametrize("index, target, failing", [
        (5, "optimize_gradient", lambda real: lambda *a: replace(real(*a), best_pmd=1e-4)),
        (6, "optimize_phase_matrix",
         lambda real: lambda *a, **kw: replace(real(*a, **kw), best_pmd=1e-4)),
        # the direct link's counts where the panel's were: detection below 1 with alarms
        (7, "sweep_trials", lambda real: lambda plans, grids: real(plans, grids)[::-1]),
    ], ids=["C06", "C07", "C08"])
    def test_optimum_criteria_fail_on_a_failing_result(self, scenario, monkeypatch, index,
                                                        target, failing):
        from rispla import checks

        monkeypatch.setattr(checks, target, failing(getattr(checks, target)))
        ok, detail = CHECKS[index][1](scenario, 1)
        assert not ok, detail

    @pytest.mark.parametrize("args", [
        ["sweep-pfa", "--epsilon", 1.0, "--seed", -1],
        ["sweep-pfa", "--epsilon", 1.0, "--trials", 0],
        ["sweep-pfa", "--epsilon", "nan"],
        ["sweep-pmd", "--target-pfa", 0.05, "--gradient", "nan"],
        ["roc", "--lq-db", "inf"],
        ["sweep-pfa", "--epsilon", 1.0, "--workers", 0],
        ["sweep-pfa", "--epsilon", 1.0, "--workers", -3],
        ["sweep-pmd", "--feature", "cir-magnitude", "--epsilon", 0.5, "--phases", "0,1"],
        ["roc", "--epsilons", "1,0.5"],
        ["roc", "--epsilons", "nan,1"],
        ["roc", "--epsilons", "-0.5,1"],
        ["roc", "--epsilons", "1,inf"],
        ["roc", "--epsilons", "log:1e-6:1:1000000000000"],
        ["optimize-gradient", "--target-pfa", 2],
        ["optimize-gradient", "--epsilon", 1e-5, "--grid", "0:1"],
        ["optimize-gradient", "--epsilon", 1e-5, "--grid", "0:1:x"],
        ["optimize-gradient", "--epsilon", 1e-5, "--grid", "0:1:0"],
        ["optimize-gradient", "--epsilon", 1e-5, "--grid", "0:nan:5"],
        ["optimize-gradient", "--epsilon", 1e-5, "--grid", "0:1:1000000000000"],
        ["optimize-phases", "--epsilon", 0.1, "--levels", 1],
        ["sweep-pfa", "--epsilon", 1, "--lq-grid", "nan"],
        ["sweep-pfa", "--epsilon", 1, "--lq-grid", "1,nan"],
        ["sweep-pmd", "--epsilon", 1e-5, "--lq-grid", "inf"],
        ["sweep-pfa", "--epsilon", 1, "--lq-grid", "0:1:inf"],
        ["sweep-pfa", "--epsilon", 1, "--lq-grid", "10:1:0"],
        ["sweep-pfa", "--epsilon", 1, "--lq-grid", "0:1e-300:1"],
        ["roc", "--lq-db", -4000],
        ["roc", "--lq-db", 4000],
        ["sweep-pfa", "--target-pfa", 0.05, "--lq-grid", -4000],
        ["sweep-pfa", "--target-pfa", 0.05, "--lq-grid", 4000],
        ["sweep-pmd", "--epsilon", 1e-5, "--lq-grid", "0,4000"],
        ["sweep-pmd", "--feature", "cir-phase", "--epsilon", 0.1, "--phases", "nan," + ZEROS_255],
        ["sweep-pmd", "--feature", "cir-phase", "--epsilon", 0.1, "--phases", "inf," + ZEROS_255],
        ["sweep-pmd", "--feature", "cir-magnitude", "--epsilon", 0.5, "--phases", ""],
        ["sweep-pmd", "--epsilon", 0.5, "--phases", "abc"],
        ["roc", "--epsilons", ""],
        ["optimize-gradient", "--epsilon", 1e-5, "--grid", ""],
        ["optimize-gradient", "--epsilon", 1e-5, "--grid=-1e308:1e308:3"],
        ["sweep-pfa", "--epsilon", 1.0, "--seed", "abc"],
        ["sweep-pfa", "--epsilon", 1.0, "--trials", 1.5],
        # options the chosen feature never reads
        ["sweep-pmd", "--epsilon", 1e-5, "--phases", "0"],
        ["roc", "--phases", "0," + ZEROS_255],
        ["sweep-pmd", "--feature", "cir-phase", "--epsilon", 0.1, "--gradient", 0],
        ["roc", "--feature", "cir-magnitude", "--gradient", 3],
        ["sweep-pfa", "--epsilon", 1e-5, "--freeze-alice"],
        ["roc", "--freeze-alice", "--baseline", "both"],
        # a --gradient with no propagating reflection in the scenario's geometry
        ["sweep-pmd", "--target-pfa", 0.05, "--gradient", 1e6, "--trials", 100],
        ["sweep-pfa", "--target-pfa", 0.05, "--gradient", 1e6, "--trials", 100],
        ["roc", "--gradient", 1e6, "--trials", 100],
    ], ids=["negative-seed", "zero-trials", "nan-epsilon", "nan-gradient", "infinite-lq",
            "zero-workers", "negative-workers",
            "phase-count", "decreasing-epsilons", "nan-epsilons", "negative-epsilons",
            "infinite-epsilons", "huge-log-epsilons", "target-pfa-above-one", "grid-two-fields",
            "grid-bad-count", "grid-zero-points", "grid-nan-stop", "grid-huge-count",
            "one-level",
            "nan-lq-grid", "nan-in-lq-list", "infinite-lq-grid", "infinite-lq-range",
            "reversed-lq-range", "huge-lq-range",
            # 10^(-lq/10) overflows, or underflows to a zero noise variance
            "overflowing-lq", "underflowing-lq", "overflowing-lq-grid", "underflowing-lq-grid",
            "underflowing-lq-in-list",
            "nan-phases", "infinite-phases", "empty-phases", "malformed-phases-pathloss",
            "empty-epsilons", "empty-grid",
            "overflowing-grid",  # finite ends whose linspace step overflows: NaN points
            "bad-seed-text", "fractional-trials",
            "phases-pathloss-sweep", "phases-pathloss-roc", "gradient-cir-sweep",
            "gradient-cir-roc", "freeze-alice-pathloss-sweep", "freeze-alice-pathloss-roc",
            "evanescent-gradient-pmd", "evanescent-gradient-pfa", "evanescent-gradient-roc"])
    def test_input_errors_exit_usage(self, tmp_path, args):
        out = tmp_path / "x.csv"
        argv = [args[0], "--scenario", SCENARIO, *args[1:], "--output", out]
        if args[0].startswith("sweep") and "--lq-grid" not in args:
            argv += ["--lq-grid", "0"]
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse refuses the value while parsing
            code = exc.code
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alice_pos,args,message", [
        ("100, 80, 1", ["sweep-pfa", "--epsilon", 1.0, "--lq-grid", "0", "--trials", 100],
         "transmitter lies in or behind the panel plane"),
        ("100, 80, 1", ["optimize-gradient", "--target-pfa", 0.05, "--grid", "0:50:5"],
         "transmitter lies in or behind the panel plane"),
        ("90, 80, 1", ["sweep-pmd", "--baseline", "no-ris", "--epsilon", 1.0, "--lq-grid", "0",
                       "--trials", 100], "coincident transmitter and receiver positions"),
    ], ids=["behind-panel-sweep", "behind-panel-gradient", "at-bob-no-ris"])
    def test_degenerate_geometry_exits_usage(self, tmp_path, capsys, alice_pos, args, message):
        cfg = tmp_path / "geometry.cfg"
        cfg.write_text(table1_with(alice_pos=alice_pos))
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(args[0], "--scenario", cfg, *args[1:], "--output", out / "x.csv")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"rispla: error: {message}\n"
        assert list(out.iterdir()) == []

    def test_repeated_scenario_key_exits_usage(self, tmp_path, capsys):
        text = TABLE1.read_text()
        first = 1 + next(i for i, line in enumerate(text.splitlines()) if line.startswith("lq_db"))
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text(text + "lq_db = 30\n")
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli("sweep-pfa", "--scenario", cfg, "--epsilon", 1.0, "--lq-grid", "0",
                       "--trials", 100, "--output", out / "x.csv")
        assert code == EXIT_USAGE
        repeat = len(text.splitlines()) + 1
        assert capsys.readouterr().err == (
            f"rispla: error: {cfg}:{repeat}: lq_db repeats line {first}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["optimize-gradient", "--epsilon", 1e-5, "--grid=-1e308:1e308:3"],
        ["roc", "--epsilons", "log:inf:1:3"],
        ["roc", "--epsilons", "log:-1:1:5"],
    ], ids=["overflowing-grid", "infinite-log-epsilons", "negative-log-epsilons"])
    def test_refused_grid_is_one_stderr_line(self, tmp_path, args):
        proc = run_fresh(args[0], "--scenario", SCENARIO, *args[1:], "--output", tmp_path / "x.csv")
        assert proc.returncode == EXIT_USAGE
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,extra", [
        ("roc", []),
        ("sweep-pfa", ["--epsilon", 1.0, "--lq-grid", "0"]),
    ], ids=["roc", "sweep-pfa"])
    def test_non_finite_scenario_exits_usage(self, tmp_path, command, extra):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(table1_with(tx_power_w="nan"))
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(command, "--scenario", cfg, *extra, "--trials", 2000,
                       "--output", out / "x.csv")
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("lq", [-4000, 4000], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("command,extra", [
        ("roc", ["--trials", 2000]),
        ("optimize-gradient", ["--target-pfa", 0.05, "--grid", "0:50:5"]),
        ("optimize-phases", ["--epsilon", 0.1, "--levels", 2, "--budget", 2000,
                             "--eval-trials", 1000]),
    ], ids=["roc", "optimize-gradient", "optimize-phases"])
    def test_noise_out_of_range_scenario_exits_usage(self, tmp_path, command, extra, lq):
        cfg = tmp_path / "lq.cfg"
        cfg.write_text(table1_with(lq_db=lq))
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(command, "--scenario", cfg, *extra, "--output", out / "x.csv")
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []


def log_grid(lo, hi, n):
    with np.errstate(all="ignore"):
        return np.geomspace(lo, hi, n)


# (text, the numbers it denotes, or None where it denotes none)
THRESHOLD_TEXTS = [("0", 0.0), ("-0.0", -0.0), ("1e-5", 1e-5), ("1e308", 1e308),
                   ("-1e-300", -1e-300), ("-1", -1.0), ("nan", math.nan), ("inf", math.inf),
                   ("-inf", -math.inf), ("0.1x", None), ("", None)]
TARGET_TEXTS = [("1", 1.0), ("0.05", 0.05), ("5e-324", 5e-324), ("0", 0.0), ("-0.0", -0.0),
                ("1.5", 1.5), ("-1", -1.0), ("nan", math.nan), ("inf", math.inf), ("x", None)]
GRID_TEXTS = [("1e-5,1e-4", [1e-5, 1e-4]), ("0", [0.0]), ("-0.0,1", [-0.0, 1.0]),
              ("0,-0.0", [0.0, -0.0]), ("1,1", [1.0, 1.0]), ("2,1", [2.0, 1.0]),
              ("nan", [math.nan]), ("1,nan,2", [1.0, math.nan, 2.0]), ("-1,2", [-1.0, 2.0]),
              ("0,1,inf", [0.0, 1.0, math.inf]), ("-inf,0", [-math.inf, 0.0]), ("", None),
              ("1,,2", None), ("log:1e-6:1:4", log_grid(1e-6, 1.0, 4)),
              ("log:1:1:2", [1.0, 1.0]), ("log:1:10:0", []),
              ("log:inf:1:3", log_grid(math.inf, 1.0, 3)),
              ("log:1:10:20000", None)]  # more points than the CLI's limit: never built


class TestThresholdOptions:
    """The threshold options accept exactly the values that auth's checks accept."""

    @pytest.mark.parametrize("command,option,check,text,value", [
        *(("optimize-phases", "--epsilon", auth.check_threshold, *tv) for tv in THRESHOLD_TEXTS),
        *(("sweep-pmd", "--target-pfa", auth.check_target_pfa, *tv) for tv in TARGET_TEXTS),
        *(("roc", "--epsilons", auth.check_grid, *tv) for tv in GRID_TEXTS),
    ])
    def test_option_accepts_what_auth_accepts(self, capsys, command, option, check, text, value):
        argv = [command, "--scenario", SCENARIO, f"{option}={text}", "--output", "x.csv"]
        try:
            checked = None if value is None else check(value)
        except ValueError:
            checked = None
        if checked is None:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == EXIT_USAGE
            assert f"argument {option}: expected " in capsys.readouterr().err
        else:
            parsed = getattr(build_parser().parse_args(argv), option[2:].replace("-", "_"))
            assert np.asarray(parsed).tobytes() == np.asarray(checked, float).tobytes()


class TestAtomicOutputs:
    @pytest.mark.parametrize("command,extra", [
        ("sweep-pfa", ["--epsilon", 1.0, "--lq-grid", "0"]),
        ("roc", ["--epsilons", "1e-6,1e-5"]),
    ], ids=["sweep-pfa", "roc"])
    def test_failed_baseline_writes_nothing(self, tmp_path, monkeypatch, command, extra):
        from rispla import mc

        real = mc.sweep_trials

        def fail_on_no_ris(plans, *args, **kwargs):
            if not all(p.ris for p in plans):
                raise ValueError("no-RIS baseline failed")
            return real(plans, *args, **kwargs)

        monkeypatch.setattr(mc, "sweep_trials", fail_on_no_ris)
        code = run_cli(command, "--scenario", SCENARIO, *extra, "--trials", 100,
                       "--baseline", "both", "--output", tmp_path / "x.csv")
        assert code == EXIT_RUNTIME
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,extra,blocked", [
        ("optimize-gradient", ["--target-pfa", 0.05, "--grid", "0:40:30"], "x_summary.csv"),
        ("sweep-pfa", ["--epsilon", 1.0, "--lq-grid", "0", "--trials", 100, "--baseline", "both"],
         "x_noris.csv"),
    ], ids=["optimize-gradient-summary", "sweep-pfa-noris"])
    def test_directory_in_the_way_writes_nothing(self, tmp_path, command, extra, blocked):
        (tmp_path / blocked).mkdir()  # the second output's path
        code = run_cli(command, "--scenario", SCENARIO, *extra, "--output", tmp_path / "x.csv")
        assert code == EXIT_RUNTIME
        assert [p.name for p in tmp_path.iterdir()] == [blocked]  # no output, no temp file

    def test_failed_second_write_leaves_nothing(self, tmp_path, monkeypatch):
        real = Path.write_text
        writes = []

        def fail_second(path, text, *args, **kwargs):
            writes.append(path)
            if len(writes) == 2:
                raise OSError("disk full")
            return real(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", fail_second)
        code = run_cli("optimize-gradient", "--scenario", SCENARIO, "--target-pfa", 0.05,
                       "--grid", "0:40:30", "--output", tmp_path / "x.csv")
        assert code == EXIT_RUNTIME
        assert len(writes) == 2
        assert list(tmp_path.iterdir()) == []


class TestDbConversions:
    def test_lq_column_round_trips(self, tmp_path):
        out = tmp_path / "pfa.csv"
        run_cli("sweep-pfa", "--scenario", SCENARIO, "--epsilon", 1e-5,
                "--lq-grid", "0:7:35", "--trials", 200, "--output", out)
        lqs = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert lqs == [0.0, 7.0, 14.0, 21.0, 28.0, 35.0]
