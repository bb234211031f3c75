#!/usr/bin/env python3
"""CIR-feature experiment battery: per-element phase search, error sweeps, ROC.

Emits CSVs into results/cir/ (override with --outdir):
    cir_desk.cfg              derived desk-scale scenario (8 elements, 20 dB)
    phase_trace.csv           per-element missed-detection sweeps (+ _summary.csv)
    pfa_mag_*.csv             magnitude false alarm vs link quality (pinned enrollment,
                              the regime of the closed-form Rayleigh column)
    pmd_mag_*.csv             magnitude missed detection vs link quality
    pmd_phase_*.csv           phase missed detection vs link quality at the optimum
    roc_phase_*.csv           operating characteristic of the phase test

The panel search is combinatorial, so the desk scenario shrinks the panel to
8 elements; the full 256-element panel would need 16^256 candidates.
"""

import argparse
import csv
import sys
from pathlib import Path

from rispla.cli import main as cli

DESK_OVERRIDES = {"n_elements": "8", "lq_db": "20"}


def run(*args) -> None:
    argv = [str(a) for a in args]
    print("+ rispla " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def write_desk_scenario(source: Path, dest: Path) -> None:
    lines = []
    for raw in source.read_text().splitlines():
        key = raw.split("=")[0].strip() if "=" in raw else None
        if key in DESK_OVERRIDES:
            lines.append(f"{key} = {DESK_OVERRIDES[key]}")
        else:
            lines.append(raw)
    dest.write_text("\n".join(lines) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="scenarios/table1.cfg")
    ap.add_argument("--outdir", default="results/cir")
    ap.add_argument("--trials", type=int, default=30_000)
    ap.add_argument("--epsilon", type=float, default=1e-3,
                    help="phase-test threshold for the optimization (rad)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    desk = out / "cir_desk.cfg"
    write_desk_scenario(Path(args.scenario), desk)

    # per-element sweeps of the empirical phase missed detection
    run("optimize-phases", "--scenario", desk, "--epsilon", args.epsilon,
        "--levels", 16, "--budget", 10**7, "--eval-trials", 10**4, "--seed", 0,
        "--output", out / "phase_trace.csv")
    with open(out / "phase_trace_summary.csv") as fh:
        best_phases = next(csv.DictReader(fh))["best_profile"].replace(";", ",")

    # magnitude false alarm: pinned enrollment matches the Rayleigh closed form
    run("sweep-pfa", "--scenario", desk, "--feature", "cir-magnitude",
        "--target-pfa", 0.05, "--freeze-alice", "--lq-grid", "0:4:40",
        "--trials", args.trials, "--seed", args.seed, "--baseline", "both",
        "--output", out / "pfa_mag.csv")

    # magnitude and phase missed detection vs link quality at the optimum
    run("sweep-pmd", "--scenario", desk, "--feature", "cir-magnitude",
        "--epsilon", 0.5, "--phases", best_phases, "--lq-grid", "0:4:40",
        "--trials", args.trials, "--seed", args.seed, "--baseline", "both",
        "--output", out / "pmd_mag.csv")
    run("sweep-pmd", "--scenario", desk, "--feature", "cir-phase",
        "--epsilon", args.epsilon, "--phases", best_phases, "--lq-grid", "0:4:40",
        "--trials", args.trials, "--seed", args.seed, "--baseline", "both",
        "--output", out / "pmd_phase.csv")

    # phase-test operating characteristic
    run("roc", "--scenario", desk, "--feature", "cir-phase", "--phases", best_phases,
        "--trials", args.trials, "--seed", args.seed, "--baseline", "both",
        "--output", out / "roc_phase.csv")

    print(f"done; outputs in {out}/")


if __name__ == "__main__":
    main()
