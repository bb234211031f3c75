#!/usr/bin/env python3
"""Pathloss-feature experiment battery: gradient sweep, error sweeps, ROC.

Emits CSVs into results/pathloss/ (override with --outdir):
    gradient_trace.csv      missed detection vs phase gradient (+ _summary.csv)
    pfa_ris.csv/_noris.csv  false alarm vs link quality, both link types
    pmd_opt_*.csv           missed detection vs link quality at the optimal gradient
    roc_ris.csv/_noris.csv  operating characteristic at 60 dB link quality

Link-quality grids sit where the reflected-path contrast (~3e-2 linear)
crosses the noise floor; below ~45 dB the noise dominates every fingerprint.
"""

import argparse
import csv
import sys
from pathlib import Path

from rispla.cli import main as cli


def run(*args) -> None:
    argv = [str(a) for a in args]
    print("+ rispla " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="scenarios/table1.cfg")
    ap.add_argument("--outdir", default="results/pathloss")
    ap.add_argument("--trials", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    # missed detection vs gradient; the summary row carries the optimum
    run("optimize-gradient", "--scenario", args.scenario, "--target-pfa", 0.05,
        "--output", out / "gradient_trace.csv")
    with open(out / "gradient_trace_summary.csv") as fh:
        best_gradient = float(next(csv.DictReader(fh))["best_profile"])

    # false alarm vs link quality: identical for both link types by construction
    run("sweep-pfa", "--scenario", args.scenario, "--target-pfa", 0.05,
        "--lq-grid", "50:5:100", "--trials", args.trials, "--seed", args.seed,
        "--baseline", "both", "--output", out / "pfa.csv")

    # missed detection vs link quality at the optimal gradient
    run("sweep-pmd", "--scenario", args.scenario, "--target-pfa", 0.05,
        "--gradient", best_gradient, "--lq-grid", "50:5:100", "--trials", args.trials,
        "--seed", args.seed, "--baseline", "both", "--output", out / "pmd_opt.csv")

    # operating characteristic at a fixed link quality
    run("roc", "--scenario", args.scenario, "--lq-db", 60,
        "--gradient", best_gradient, "--trials", args.trials, "--seed", args.seed,
        "--baseline", "both", "--output", out / "roc.csv")

    print(f"done; optimal gradient {best_gradient:.6g} rad/m, outputs in {out}/")


if __name__ == "__main__":
    main()
