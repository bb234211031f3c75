#!/usr/bin/env python3
"""rispla benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload pathloss-battery --seed 0 --seconds 10 --trace 0

Runs from a source checkout with `src/` on the import path (as
`PYTHONPATH=src`); the package need not be installed. With --trace 0 the
last stdout line is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of BENCHMARK.json instead. Lines
before it describe the machine and the sample counts. Scratch files and the
span dump go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, median_metrics

ROOT = workloads.ROOT
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_STARTS = 7
MIN_ITERATIONS = 3
# Times are CPU seconds of the benchmark process and its finished children,
# which leaves out the waits of a shared host's scheduler. The host's speed
# also drifts by about 15% over minutes (README.md), so each CPU time is
# scaled by a yardstick measured right before and right after it: fixed work
# that calls nothing of rispla, Philox uniforms through Box-Muller as the
# Monte-Carlo engine does, then a scalar pure-Python loop as the optimizers do.
YARDSTICK_REFERENCE_S = 0.25  # its CPU time on the reference machine
YARDSTICK_UNIFORMS = 1 << 18
YARDSTICK_PASSES = 8
YARDSTICK_LOOP = 800_000
SETUP_CODE = ("import rispla.cli; "
              "rispla.cli.load_scenario('scenarios/table1.cfg')")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a nonnegative 64-bit integer")
    return args


def yardstick_cpu_s() -> float:
    """CPU time of one pass of the yardstick's fixed work."""
    import numpy as np
    start = time.process_time()
    n = YARDSTICK_UNIFORMS
    for _ in range(YARDSTICK_PASSES):
        u = np.random.Generator(np.random.Philox(0)).random(2 * n)
        np.sqrt(-2.0 * np.log1p(-u[:n])) * np.cos(2.0 * np.pi * u[n:])
    acc, table = 0.0, {}
    for i in range(YARDSTICK_LOOP):
        acc += i * 0.5
        table[i & 1023] = acc
    return time.process_time() - start


def at_reference_speed(cpus: list[float], yardsticks: list[float]) -> tuple[list, list]:
    """Scale each CPU time by the yardsticks taken just before and just after it.

    Returns the scaled times and the speed factors, which read below 1 on a
    host slower than the reference machine.
    """
    factors = [2.0 * YARDSTICK_REFERENCE_S / (before + after)
               for before, after in zip(yardsticks, yardsticks[1:])]
    return [cpu * f for cpu, f in zip(cpus, factors)], factors


def setup_seconds() -> float:
    """Median CPU time, at reference speed, of fresh interpreters that import
    rispla.cli and load table1."""
    # OpenBLAS starts a thread pool at import that spins on the other core
    # for a random while (0.25 to 0.38 s of CPU per start); rispla's own BLAS
    # calls are on 3-vectors, so one thread leaves only rispla's work timed.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    walls, cpus, yardsticks = [], [], [yardstick_cpu_s()]
    for _ in range(SETUP_STARTS):
        start, start_cpu = time.perf_counter(), workloads.cpu_seconds()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
        cpus.append(workloads.cpu_seconds() - start_cpu)
        yardsticks.append(yardstick_cpu_s())
    times, _ = at_reference_speed(cpus, yardsticks)
    print(summary_line("setup wall (raw)", walls, "s"))
    print(summary_line("setup_s", times, "s"))
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak resident set of this process or of its largest finished child (pool worker)."""
    own, child = (resource.getrusage(who).ru_maxrss / 1024.0
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(f"peak_rss_mb: {own:.6g} MiB this process, {child:.6g} MiB largest child")
    return max(own, child)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(args) -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "invocation": (f"PYTHONPATH=src python3 perfbench/run.py --workload {args.workload} "
                       f"--seed {args.seed} --seconds {args.seconds:g} --trace {args.trace}"),
    }


def call_cli(argv: list[str]) -> int:
    # looked up on every call, so an installed tracer's wrapper is used
    return sys.modules["rispla.cli"].main(argv)


def summary_line(name: str, values: list[float], unit: str) -> str:
    return (f"{name}: median {statistics.median(values):.6g} {unit}, n={len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def measure(run, seconds: float) -> tuple[dict, list]:
    """Repeat the workload for `seconds` after one warm-up; medians at reference speed."""
    run()
    yardsticks = [yardstick_cpu_s()]
    iterations = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(iterations) < MIN_ITERATIONS:
        iterations.append(run())
        yardsticks.append(yardstick_cpu_s())
    cpus, factors = at_reference_speed([it.cpu_s for it in iterations], yardsticks)
    rates = [it.trials / cpu for it, cpu in zip(iterations, cpus)]
    print(summary_line("wall (raw)", [it.wall_s for it in iterations], "s"))
    print(summary_line("cpu (raw)", [it.cpu_s for it in iterations], "s"))
    print(summary_line("speed factor", factors, "×"))
    print(summary_line("cpu_s", cpus, "s"))
    print(summary_line("trials_per_cpu_s", rates, "trials/s"))
    metrics = {"cpu_s": statistics.median(cpus), "trials_per_cpu_s": statistics.median(rates)}
    return metrics, iterations


def measure_traced(run, seconds: float, spans_csv: Path) -> tuple[dict, list]:
    """Alternate untraced and traced iterations; per-layer medians and overhead."""
    tracer = Tracer()
    plain, traced, layers = [], [], []
    run()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < MIN_ITERATIONS:
        plain.append(run())
        tracer.run_id = len(traced)
        with tracer:
            traced.append(run())
        layers.append(tracer.layer_metrics(tracer.run_id))
    metrics = median_metrics(layers)
    metrics["cli.csv_bytes"] = statistics.median(it.csv_bytes for it in traced)
    metrics["trace_overhead_s"] = (statistics.median(it.wall_s for it in traced)
                                   - statistics.median(it.wall_s for it in plain))
    print(summary_line("untraced wall_s", [it.wall_s for it in plain], "s"))
    print(summary_line("traced wall_s", [it.wall_s for it in traced], "s"))
    tracer.write_csv(spans_csv)
    print(f"spans: {len(tracer.spans)} written to {spans_csv.relative_to(ROOT)}")
    return metrics, plain + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "rispla" / "cli.py", workloads.TABLE1) if not p.is_file()]
    if missing:
        print(f"perfbench: not a rispla checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rispla.cli  # noqa: F401  (imported before timing, as setup_s measures it apart)

    digests = workloads.load_digests().get(args.workload, {}).get(str(args.seed))
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"work-{os.getpid()}"
    print("machine: " + json.dumps(machine(args)))
    run = functools.partial(workloads.run_iteration, args.workload, call_cli, workdir,
                            args.seed, digests)
    try:
        if args.trace:
            spans_csv = SCRATCH / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, iterations = measure_traced(run, args.seconds, spans_csv)
        else:
            setup = setup_seconds()
            metrics, iterations = measure(run, args.seconds)
            metrics["setup_s"] = setup
            metrics["peak_rss_mb"] = peak_rss_mib()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    if not args.trace:
        metrics["ok_ratio"] = (attempted - failed) / attempted
    for problem in sorted({p for it in iterations for p in it.problems}):
        print(f"check failed: {problem}")
    print(f"commands: {attempted} attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.6g}; "
          f"output digests {'checked' if digests else 'not recorded for this seed'}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
