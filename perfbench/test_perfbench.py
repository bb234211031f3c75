"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

Counts repeat exactly at a fixed seed, a corrupted output is counted as a
failed command, results/ is left untouched, and a directory without the
rispla sources makes the benchmark fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import rispla.cli  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

EXACT = ("mc.trials", "mc.uniform_bytes_computed", "optim.phase.evaluations", "cli.csv_bytes",
         "mc.calls", "cli.calls", "channel.ris_pathloss.calls", "optim.gradient.points")
UNRECORDED_SEED = 987_654_321


def call_cli(argv):
    return sys.modules["rispla.cli"].main(argv)


def tree_state(path: Path) -> dict:
    return {str(p.relative_to(path)): (p.stat().st_mtime_ns, workloads.sha256(p))
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced iterations of every workload at seed 0, with results/ before and after."""
    before = tree_state(ROOT / "results")
    runs = {}
    for name in workloads.WORKLOADS:
        pair = []
        for _ in range(2):
            tracer = Tracer()
            with tracer:
                it = workloads.run_iteration(name, call_cli, tmp_path_factory.mktemp(name), 0,
                                             workloads.load_digests()[name]["0"])
            metrics = tracer.layer_metrics(0)
            metrics["cli.csv_bytes"] = it.csv_bytes
            pair.append((it, metrics))
        runs[name] = pair
    return before, runs, tree_state(ROOT / "results")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(traced_runs, name):
    (first, m1), (second, m2) = traced_runs[1][name]
    assert first.failed == second.failed == 0, first.problems + second.problems
    assert {k: m1[k] for k in EXACT} == {k: m2[k] for k in EXACT}
    # the engine sees exactly the trials the benchmark counts from the commands
    assert m1["mc.trials"] == first.trials > 0
    if name == "phase-search":
        assert m1["optim.phase.evaluations"] == workloads.PHASE_EVALUATIONS


def test_results_untouched(traced_runs):
    before, _, after = traced_runs
    assert before == after


def test_traced_metrics_match_benchmark_json(traced_runs):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    _, metrics = traced_runs[1]["cir-panel"][0]
    assert declared == set(metrics) | {"trace_overhead_s"}


def corrupting(edit):
    """A cli entry point that edits the ROC CSV after the real command writes it."""
    def main(argv):
        code = rispla.cli.main(argv)
        if argv[0] == "roc":
            path = Path(argv[argv.index("--output") + 1])
            path.write_text(edit(path.read_text()))
        return code
    return main


def test_structural_check_catches_corruption(tmp_path):
    def reverse_rows(text):
        header, *rows = text.splitlines()
        return "\n".join([header, *reversed(rows)]) + "\n"
    it = workloads.run_iteration("cir-panel", corrupting(reverse_rows), tmp_path, UNRECORDED_SEED)
    assert (it.attempted, it.failed) == (2, 1)
    assert "increasing" in it.problems[0]


def test_digest_catches_corruption_the_structure_allows(tmp_path):
    digests = workloads.load_digests()["cir-panel"]["0"]
    it = workloads.run_iteration("cir-panel", corrupting(lambda t: t + "# edited\n"), tmp_path,
                                 0, digests)
    assert (it.attempted, it.failed) == (2, 1)
    assert "SHA-256" in it.problems[0]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cir-panel",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_usage_exit_fails_every_command_that_depends_on_it(tmp_path):
    def usage_error(argv):
        raise SystemExit(2)
    it = workloads.run_iteration("pathloss-battery", usage_error, tmp_path, UNRECORDED_SEED)
    assert (it.attempted, it.failed) == (4, 4)
    assert "stopped after 1 commands" in it.problems[0]
