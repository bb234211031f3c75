"""The benchmark's four desk workloads and the checks on what they write.

Each workload is a fixed list of rispla commands, run in-process through
`rispla.cli.main(argv)` the way `scripts/*_experiments.py` run them. Every
output goes to a scratch directory the caller owns; nothing here reads or
writes `results/`. See README.md in this directory for why these four.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
TABLE1 = ROOT / "scenarios" / "table1.cfg"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

SWEEP_HEADER = "lq_db,threshold,analytical,empirical,half_width_95,n_trials"
ROC_HEADER = "epsilon,pfa,pd"
TRACE_HEADER = "coordinate,value,pmd"
SUMMARY_HEADER = "best_pmd,evaluations,best_profile"

# An empirical column must lie within AGREEMENT_SE binomial standard errors
# of the closed form, plus one count of slack for closed forms near 0 or 1
# (where the standard error vanishes but a single event is still plausible).
AGREEMENT_SE = 5.0

# `roc` without --epsilons draws a pilot of min(trials, 10_000) statistics per
# hypothesis and returns a 50-point grid (rispla.cli._auto_epsilons).
ROC_PILOT_CAP = 10_000
ROC_AUTO_POINTS = 50

PATHLOSS_TRIALS = 200_000
PATHLOSS_LQ = "50:5:100"
GRADIENT_POINTS = 10_000
CIR_TRIALS = 4080  # one full engine chunk at N=256: (1 << 22) // (4 * 256 + 4)
CIR_LQ = "0:20:40"
PHASE_LEVELS = 16
PHASE_ELEMENTS = 8
PHASE_EVAL_TRIALS = 10_000
# One coordinate pass over 8 elements at 16 levels is 16 + 7 * 15 = 121
# evaluations for every seed; later passes depend on the seed (121 to 211
# evaluations at seeds 0-15), so the budget stops the search after the first.
PHASE_EVALUATIONS = 16 + (PHASE_ELEMENTS - 1) * (PHASE_LEVELS - 1)
PHASE_BUDGET = PHASE_EVALUATIONS * PHASE_EVAL_TRIALS
POOL_TRIALS = 100_000  # below one pathloss chunk (2**20), so one task per call
POOL_WORKERS = 2


class CheckError(ValueError):
    """An output file is missing, malformed or numerically implausible."""


def lq_values(spec: str) -> list[float]:
    """The inclusive start:step:stop grid, computed as rispla.cli does."""
    start, step, stop = (float(p) for p in spec.split(":"))
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def _table(path: Path, header: str) -> list[list[str]]:
    if not path.is_file():
        raise CheckError(f"{path.name}: not written")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: header {lines[:1]} is not {header!r}")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    width = header.count(",") + 1
    for row in rows:
        if len(row) != width:
            raise CheckError(f"{path.name}: row {row} has {len(row)} fields, expected {width}")
    return rows


def _probability(path: Path, text: str) -> float:
    p = float(text)
    if not 0.0 <= p <= 1.0:
        raise CheckError(f"{path.name}: probability {text} outside [0, 1]")
    return p


def check_sweep(path: Path, lq_spec: str, *, analytical: bool) -> None:
    """Row per grid point, probabilities in [0, 1], empirical near the closed form."""
    rows = _table(path, SWEEP_HEADER)
    grid = lq_values(lq_spec)
    if len(rows) != len(grid):
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {len(grid)}")
    for row, lq in zip(rows, grid):
        if abs(float(row[0]) - lq) > 1e-9:
            raise CheckError(f"{path.name}: lq_db {row[0]}, expected {lq}")
        if not float(row[1]) > 0.0:
            raise CheckError(f"{path.name}: threshold {row[1]} is not positive")
        empirical = _probability(path, row[3])
        if not float(row[4]) >= 0.0:
            raise CheckError(f"{path.name}: negative half-width {row[4]}")
        n = int(row[5])
        if n < 1:
            raise CheckError(f"{path.name}: n_trials {n}")
        if not analytical:
            continue
        if row[2] == "":
            raise CheckError(f"{path.name}: empty analytical column at lq_db {row[0]}")
        p = _probability(path, row[2])
        allowed = AGREEMENT_SE * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
        if abs(empirical - p) > allowed:
            raise CheckError(f"{path.name}: empirical {empirical} vs analytical {p} differ by "
                             f"more than {AGREEMENT_SE} standard errors at lq_db {row[0]}")


def check_roc(path: Path) -> None:
    """Auto grid of thresholds, increasing; pfa and pd in [0, 1] and non-increasing."""
    rows = _table(path, ROC_HEADER)
    if len(rows) != ROC_AUTO_POINTS:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {ROC_AUTO_POINTS}")
    eps = [float(r[0]) for r in rows]
    pfa = [_probability(path, r[1]) for r in rows]
    pd = [_probability(path, r[2]) for r in rows]
    if not eps[0] > 0.0 or any(b <= a for a, b in zip(eps, eps[1:])):
        raise CheckError(f"{path.name}: thresholds not positive and strictly increasing")
    for name, col in (("pfa", pfa), ("pd", pd)):
        if any(b > a for a, b in zip(col, col[1:])):
            raise CheckError(f"{path.name}: {name} increases with the threshold")


def check_optimizer(trace: Path, *, summary: Path, evaluations: int | None,
                    min_rows: int, max_rows: int) -> None:
    """Trace pmd in [0, 1]; the summary's best is the trace minimum.

    evaluations=None means one evaluation per trace row (no cache hits).
    """
    rows = _table(trace, TRACE_HEADER)
    if not min_rows <= len(rows) <= max_rows:
        raise CheckError(f"{trace.name}: {len(rows)} rows, expected {min_rows}..{max_rows}")
    pmds = [_probability(trace, r[2]) for r in rows]
    (best,) = _table(summary, SUMMARY_HEADER)
    expected = len(rows) if evaluations is None else evaluations
    if int(best[1]) != expected:
        raise CheckError(f"{summary.name}: {best[1]} evaluations, expected {expected}")
    if float(best[0]) != min(pmds):
        raise CheckError(f"{summary.name}: best_pmd {best[0]} is not the trace minimum {min(pmds)}")


def read_summary(path: Path) -> dict[str, str]:
    (row,) = _table(path, SUMMARY_HEADER)
    return dict(zip(SUMMARY_HEADER.split(","), row))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


@dataclass
class Command:
    argv: list[str]
    outputs: dict[str, Callable[[Path], None] | None]  # file name -> structural check
    exit_code: int | None = None
    error: str = ""


@dataclass
class Session:
    """One workload iteration: runs commands into `outdir` and checks their outputs."""

    cli_main: Callable[[list[str]], int]
    outdir: Path
    scenario: Path
    seed: int
    trials: int = 0
    commands: list[Command] = field(default_factory=list)

    def path(self, name: str) -> Path:
        return self.outdir / name

    def run(self, *argv, trials: int, outputs: dict[str, Callable[[Path], None] | None]) -> None:
        """Run one command; its Monte-Carlo trials count once it exits 0."""
        cmd = Command([str(a) for a in argv], outputs)
        self.commands.append(cmd)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cmd.exit_code = self.cli_main(cmd.argv)
        except SystemExit as exc:  # argparse reports usage errors by exiting
            cmd.exit_code = exc.code
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            cmd.error = repr(exc)
            return
        if cmd.exit_code == 0:
            self.trials += trials

    def verify(self, digests: dict[str, str] | None) -> list[str]:
        """One problem line per failed command; exact digests where recorded."""
        problems = []
        for cmd in self.commands:
            try:
                if cmd.exit_code != 0:
                    raise CheckError(f"exit code {cmd.exit_code} {cmd.error}".strip())
                for name, check in cmd.outputs.items():
                    if check is not None:
                        check(self.path(name))
                    if digests is not None and sha256(self.path(name)) != digests.get(name):
                        raise CheckError(f"{name}: SHA-256 differs from the recorded digest")
            except (OSError, ValueError) as exc:  # CheckError is a ValueError
                problems.append(f"{cmd.argv[0]}: {exc}")
        return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


PATHLOSS_SWEEP = functools.partial(check_sweep, lq_spec=PATHLOSS_LQ, analytical=True)


def pathloss_battery(s: Session) -> None:
    """scripts/pathloss_experiments.py at 200k trials, outputs in a scratch dir."""
    s.run("optimize-gradient", "--scenario", s.scenario, "--target-pfa", 0.05,
          "--output", s.path("gradient_trace.csv"), trials=0,
          outputs={"gradient_trace.csv": functools.partial(
                       check_optimizer, summary=s.path("gradient_trace_summary.csv"),
                       evaluations=None, min_rows=GRADIENT_POINTS, max_rows=GRADIENT_POINTS),
                   "gradient_trace_summary.csv": None})
    best_gradient = read_summary(s.path("gradient_trace_summary.csv"))["best_profile"]
    for command, stem, extra in (("sweep-pfa", "pfa", ()),
                                 ("sweep-pmd", "pmd_opt", ("--gradient", best_gradient))):
        s.run(command, "--scenario", s.scenario, "--target-pfa", 0.05, *extra,
              "--lq-grid", PATHLOSS_LQ, "--trials", PATHLOSS_TRIALS, "--seed", s.seed,
              "--baseline", "both", "--output", s.path(f"{stem}.csv"),
              trials=2 * len(lq_values(PATHLOSS_LQ)) * PATHLOSS_TRIALS,
              outputs={f"{stem}_ris.csv": PATHLOSS_SWEEP, f"{stem}_noris.csv": PATHLOSS_SWEEP})
    s.run("roc", "--scenario", s.scenario, "--lq-db", 60, "--gradient", best_gradient,
          "--trials", PATHLOSS_TRIALS, "--seed", s.seed, "--baseline", "both",
          "--output", s.path("roc.csv"),
          trials=2 * (PATHLOSS_TRIALS + 2 * min(PATHLOSS_TRIALS, ROC_PILOT_CAP)),
          outputs={"roc_ris.csv": check_roc, "roc_noris.csv": check_roc})


def cir_panel(s: Session) -> None:
    """Both CIR features on the full 256-element panel, serially."""
    s.run("sweep-pmd", "--scenario", s.scenario, "--feature", "cir-magnitude",
          "--target-pfa", 0.05, "--lq-grid", CIR_LQ, "--trials", CIR_TRIALS,
          "--seed", s.seed, "--output", s.path("pmd_mag.csv"),
          trials=len(lq_values(CIR_LQ)) * CIR_TRIALS,
          outputs={"pmd_mag.csv": functools.partial(check_sweep, lq_spec=CIR_LQ,
                                                    analytical=False)})
    s.run("roc", "--scenario", s.scenario, "--feature", "cir-phase",
          "--trials", CIR_TRIALS, "--seed", s.seed, "--output", s.path("roc_phase.csv"),
          trials=CIR_TRIALS + 2 * min(CIR_TRIALS, ROC_PILOT_CAP),
          outputs={"roc_phase.csv": check_roc})


def phase_search(s: Session) -> None:
    """Coordinate per-element search at the C07 configuration, one pass."""
    s.run("optimize-phases", "--scenario", s.scenario, "--epsilon", 1e-3,
          "--levels", PHASE_LEVELS, "--strategy", "coordinate", "--budget", PHASE_BUDGET,
          "--eval-trials", PHASE_EVAL_TRIALS, "--seed", s.seed,
          "--output", s.path("phase_trace.csv"),
          trials=PHASE_EVALUATIONS * PHASE_EVAL_TRIALS,
          outputs={"phase_trace.csv": functools.partial(
                       check_optimizer, summary=s.path("phase_trace_summary.csv"),
                       evaluations=PHASE_EVALUATIONS, min_rows=PHASE_ELEMENTS * PHASE_LEVELS,
                       max_rows=2 * PHASE_ELEMENTS * PHASE_LEVELS),
                   "phase_trace_summary.csv": None})


def pool_sweep(s: Session) -> None:
    """Pathloss sweeps through the process pool, one engine chunk per call."""
    for command, stem in (("sweep-pfa", "pfa"), ("sweep-pmd", "pmd")):
        s.run(command, "--scenario", s.scenario, "--target-pfa", 0.05,
              "--lq-grid", PATHLOSS_LQ, "--trials", POOL_TRIALS, "--seed", s.seed,
              "--workers", POOL_WORKERS, "--baseline", "both", "--output", s.path(f"{stem}.csv"),
              trials=2 * len(lq_values(PATHLOSS_LQ)) * POOL_TRIALS,
              outputs={f"{stem}_ris.csv": PATHLOSS_SWEEP, f"{stem}_noris.csv": PATHLOSS_SWEEP})


def write_c07_scenario(dest: Path) -> Path:
    """table1.cfg with the desk overrides of scripts/cir_experiments.py."""
    overrides = {"n_elements": str(PHASE_ELEMENTS), "lq_db": "20"}
    lines = []
    for raw in TABLE1.read_text().splitlines():
        key = raw.split("=")[0].strip() if "=" in raw else None
        lines.append(f"{key} = {overrides[key]}" if key in overrides else raw)
    dest.write_text("\n".join(lines) + "\n")
    return dest


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Session], None]
    commands: int
    c07: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("pathloss-battery", pathloss_battery, 4),
    Workload("cir-panel", cir_panel, 2),
    Workload("phase-search", phase_search, 1, c07=True),
    Workload("pool-sweep", pool_sweep, 2),
)}


def cpu_seconds() -> float:
    """CPU time of this process plus that of its finished children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    trials: int
    attempted: int
    failed: int
    csv_bytes: int
    problems: list[str]


def run_iteration(name: str, cli_main, workdir: Path, seed: int,
                  digests: dict | None = None) -> Iteration:
    """Run one iteration of a workload into workdir/out and check it.

    Only the commands are timed, in wall and in CPU time. `digests` maps
    output names to SHA-256 for a recorded seed; None checks structure only.
    """
    workload = WORKLOADS[name]
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    scenario = write_c07_scenario(workdir / "c07.cfg") if workload.c07 else TABLE1
    session = Session(cli_main, outdir, scenario, seed)
    aborted = []
    start, start_cpu = time.perf_counter(), cpu_seconds()
    try:
        workload.run(session)
    except (OSError, ValueError) as exc:  # a later command needed a failed one's output
        aborted.append(f"{name} stopped after {len(session.commands)} commands: {exc}")
    wall_s, cpu_s = time.perf_counter() - start, cpu_seconds() - start_cpu
    failures = session.verify(digests)
    failed = workload.commands - len(session.commands) + len(failures)
    csv_bytes = sum(p.stat().st_size for p in outdir.glob("*.csv"))
    return Iteration(wall_s, cpu_s, session.trials, workload.commands, failed, csv_bytes,
                     aborted + failures)
