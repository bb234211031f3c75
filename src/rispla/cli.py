"""Command-line front end: scenario loading, experiment orchestration, CSV output.

Link qualities are given and written in dB; Scenario.noise_variance converts them.
CSV schemas (pinned by tests):
    sweep-pfa / sweep-pmd : lq_db,threshold,analytical,empirical,half_width_95,n_trials
    roc                   : epsilon,pfa,pd
    optimize-* trace      : coordinate,value,pmd
Exit codes: 0 success, 1 validation failure, 2 usage/parse error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import auth, mc, optim
from .auth import Feature
from .channel import (
    EvanescentError,
    GeometryError,
    PerElement,
    ScalarGradient,
    Scenario,
    ScenarioFormatError,
    load_scenario,
    pathloss_pair,
)
from .checks import CHECKS
from .mc import TrialPlan

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


# --lq-grid and --epsilons log points: each adds a count per decoded chunk, a CIR lq point a score
GRID_POINT_LIMIT = 10_000
GRADIENT_POINT_LIMIT = 10**6  # optimize-gradient grid points: 1.4 s CPU, 262 MiB peak RSS


class UsageError(ValueError):
    """A command-line value refused against the scenario or another option (exit code 2)."""


def _csv(header: str, rows, comments=()) -> str:
    """CSV text: the header, one line per row, then the comment lines. Each cell is the
    repr of its number (the shortest round-trip decimal form); None is an empty cell.

    The body is one %-format of every cell, which makes no string per cell or per line:
    optimize-gradient with a 10^6-row trace then takes 1.40 s of CPU and peaks at 262 MiB
    on a 2-vCPU Xeon, against 1.58 s and 291 MiB with a join per row, and 486 MiB with
    one split repr per column."""
    cells = tuple(itertools.chain.from_iterable(rows))
    width = header.count(",") + 1
    body = ",".join(["%r"] * width) + "\n"
    text = (body * (len(cells) // width) % cells).replace("None", "")  # no number's repr has it
    return "".join([header, "\n", text, *(line + "\n" for line in comments)])


def _write_outputs(outputs: dict[str, str]) -> None:
    """Put every {path: text} in place or none: refuse a path that is a directory before
    writing anything, write each text to a temp file beside its path, and rename the
    temps into place only once every one of them is written."""
    paths = [Path(p) for p in outputs]
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        for tmp, text in zip(temps, outputs.values()):
            tmp.write_text(text)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)  # left only when a write or a rename failed


def _scenarios(args, lq_dbs=(None,)) -> list[Scenario]:
    """The scenario file at each link quality (None: the file's own), refusing any whose
    noise variance is not a positive finite number: 10^(-lq/10) overflows or underflows."""
    scenario = load_scenario(args.scenario)
    scenarios = [scenario if lq is None else scenario.at_link_quality(lq) for lq in lq_dbs]
    for sc in scenarios:
        if not 0.0 < sc.noise_sigma < math.inf:  # sqrt of the variance: the same test
            raise UsageError(f"link quality {sc.lq_db!r} dB gives a noise variance that is "
                             "not a positive finite number")
    return scenarios


def _profile_for(args, scenario: Scenario, feature: Feature):
    """The feature's phase profile, refusing the options that this feature never reads."""
    if feature is Feature.PATHLOSS:
        if args.phases is not None or args.freeze_alice:
            option = "--phases" if args.phases is not None else "--freeze-alice"
            raise UsageError(f"{option} applies to the CIR features only")
        return ScalarGradient(0.0 if args.gradient is None else args.gradient)
    if args.gradient is not None:
        raise UsageError("--gradient applies to the pathloss feature only")
    if args.phases is None:
        return PerElement(np.zeros(scenario.n_elements))
    if args.phases.size != scenario.n_elements:
        raise UsageError(f"--phases has {args.phases.size} values, "
                         f"scenario has {scenario.n_elements} elements")
    return PerElement(args.phases)


def _epsilon(args, feature: Feature, noise_sigma):
    """--epsilon, or the closed-form threshold meeting --target-pfa at this noise level (at
    each level of an array)."""
    if args.epsilon is not None:
        return args.epsilon
    if feature is Feature.PATHLOSS:
        return auth.threshold_for_pfa(args.target_pfa, noise_sigma)
    if feature is Feature.CIR_MAGNITUDE:
        return auth.threshold_for_pfa_magnitude(args.target_pfa, noise_sigma)
    raise UsageError("the phase feature has no closed-form threshold; pass --epsilon")


def _closed_form(command: str, plan: TrialPlan):
    """The requested error in closed form as a function of (threshold, noise sigma), or None
    where only numerics exist. It reads nothing of plan that the link quality changes, so
    one call on a baseline's arrays of thresholds and noise sigmas gives its whole column,
    and its pathloss pair is computed once.

    The Rayleigh magnitude false alarm holds only with Alice's channel pinned
    to its enrollment (--freeze-alice); a re-fading Alice has no closed form. The phase
    missed detection holds for every plan; the magnitude one has no closed form.
    """
    if command == "sweep-pfa":
        if plan.feature is Feature.PATHLOSS:
            return auth.pfa_pathloss
        if plan.feature is Feature.CIR_MAGNITUDE and not plan.refade_alice:
            return lambda epsilon, sigma_n: auth.pfa_cir_magnitude(
                epsilon, auth.rayleigh_sigma(sigma_n))
        return None
    if plan.feature is Feature.PATHLOSS:
        pl_a, pl_e = pathloss_pair(plan.scenario, plan.profile.gradient, plan.ris)
        return lambda epsilon, sigma_n: auth.pmd_pathloss(epsilon, sigma_n, pl_a, pl_e)
    if plan.feature is Feature.CIR_PHASE:
        return lambda epsilon, sigma_n: auth.pmd_cir_phase(epsilon)
    return None


def _tagged(output: str, tag: str) -> str:
    """The output path with tag appended to its file stem."""
    p = Path(output)
    return str(p.with_name(p.stem + tag + p.suffix))


def _plans(args, scenarios: list[Scenario], feature: Feature) -> list[tuple[str, list[TrialPlan]]]:
    """(path, one TrialPlan per scenario) for each baseline; 'both' splits the output name.

    The scenarios differ only in link quality, so one profile serves them all.
    """
    profile = _profile_for(args, scenarios[0], feature)
    outputs = ([(_tagged(args.output, "_ris"), True), (_tagged(args.output, "_noris"), False)]
               if args.baseline == "both" else [(args.output, args.baseline == "ris")])
    return [(path, [TrialPlan(n_trials=args.trials, master_seed=args.seed, feature=feature,
                              scenario=sc, profile=profile, refade_alice=not args.freeze_alice,
                              ris=use_ris) for sc in scenarios])
            for path, use_ris in outputs]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    feature = Feature(args.feature)
    scenarios = _scenarios(args, args.lq_grid)
    sigmas = np.array([sc.noise_sigma for sc in scenarios])
    epsilons = np.broadcast_to(_epsilon(args, feature, sigmas), sigmas.shape)
    command = args.command  # sweep-pfa or sweep-pmd
    baselines = _plans(args, scenarios, feature)
    # one engine call for every baseline, so baselines of one random stream share its decode;
    # it decodes only the sender whose trials the written error counts
    hypothesis = mc.Hypothesis.H0 if command == "sweep-pfa" else mc.Hypothesis.H1
    thresholds = epsilons.tolist()
    counts = mc.sweep_trials([p for _, plans in baselines for p in plans],
                             np.tile(epsilons, len(baselines))[:, None],  # a one-column table
                             hypothesis=hypothesis, workers=args.workers)
    outputs = {}  # every baseline is computed before any file is written
    for b, (path, plans) in enumerate(baselines):
        own = counts[b * len(plans):(b + 1) * len(plans)]  # this baseline's points
        ests = [c.false_alarm(0) if command == "sweep-pfa" else c.missed_detection(0)
                for c in own]
        closed_form = _closed_form(command, plans[0])
        analytical = ([None] * len(plans) if closed_form is None
                      else closed_form(epsilons, sigmas).tolist())
        flagged = [str(k) for k, est in enumerate(ests, start=1) if est.low_confidence]
        comments = [f"# low_confidence_rows: {','.join(flagged)}"] if flagged else []
        rows = zip(args.lq_grid, thresholds, analytical, [est.value for est in ests],
                   [est.half_width_95 for est in ests], [est.n_conditioning for est in ests])
        outputs[path] = _csv("lq_db,threshold,analytical,empirical,half_width_95,n_trials",
                             rows, comments)
    _write_outputs(outputs)
    return EXIT_OK


def _cmd_roc(args) -> int:
    baselines = _plans(args, _scenarios(args, [args.lq_db]), Feature(args.feature))
    # one engine call for every baseline, so baselines of one random stream share its decode
    grids = None if args.epsilons is None else [args.epsilons] * len(baselines)  # None: auto
    counts = mc.sweep_trials([plan for _, (plan,) in baselines], grids, workers=args.workers)
    _write_outputs({path: _csv("epsilon,pfa,pd", zip(c.grid, *(a.tolist() for a in c.roc())))
                    for (path, _), c in zip(baselines, counts)})
    return EXIT_OK


def _opt_outputs(output: str, result: optim.OptResult) -> dict[str, str]:
    """The trace and its one-row summary, whose best_profile joins the numbers with ';'."""
    profile = result.best_profile
    numbers = [profile.gradient] if isinstance(profile, ScalarGradient) else profile.phases.tolist()
    summary = (f"best_pmd,evaluations,best_profile\n"
               f"{result.best_pmd!r},{result.evaluations},{';'.join(map(repr, numbers))}\n")
    return {output: _csv("coordinate,value,pmd", result.trace),
            _tagged(output, "_summary"): summary}


def _cmd_optimize_gradient(args) -> int:
    (scenario,) = _scenarios(args)
    epsilon = _epsilon(args, Feature.PATHLOSS, scenario.noise_sigma)
    grid = optim.default_gradient_grid(scenario) if args.grid is None else args.grid
    result = optim.optimize_gradient(scenario, epsilon, grid)
    _write_outputs(_opt_outputs(args.output, result))
    print(f"best gradient {result.best_profile.gradient:.6g} rad/m, "
          f"pmd {result.best_pmd:.3g}, {result.evaluations} evaluations, "
          f"{len(result.skipped)} evanescent points skipped")
    return EXIT_OK


def _cmd_optimize_phases(args) -> int:
    (scenario,) = _scenarios(args)
    result = optim.optimize_phase_matrix(
        scenario,
        epsilon=args.epsilon,
        levels=args.levels,
        strategy=optim.Strategy(args.strategy),
        budget_trials=args.budget,
        rng_seed=args.seed,
        eval_trials=args.eval_trials,
    )
    _write_outputs(_opt_outputs(args.output, result))
    print(f"best pmd {result.best_pmd:.3g} in sample, closed form min(eps, pi)/pi "
          f"{auth.pmd_cir_phase(args.epsilon):.3g}, after {result.evaluations} evaluations "
          f"({result.evaluations * args.eval_trials} trials)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    """Acceptance criteria C01-C08 (rispla.checks): C01, C03, C04 and C05 at --trials."""
    (scenario,) = _scenarios(args)
    failures = 0
    for name, check in CHECKS:
        ok, detail = check(scenario, args.trials)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 but avoid argparse's SystemExit text dance
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, expected: str, ok=lambda value: True):
    """argparse type: the text through convert, refused (exit 2) on a ValueError or by ok."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_SEED = _checked(int, "an integer in [0, 2^64)", lambda v: 0 <= v < 2**64)
_COUNT = _checked(int, "a positive integer", lambda v: v >= 1)
_LEVELS = _checked(int, "an integer >= 2", lambda v: v >= 2)
_THRESHOLD = _checked(lambda t: auth.check_threshold(float(t)), "a finite nonnegative number")
_PROBABILITY = _checked(lambda t: auth.check_target_pfa(float(t)), "a probability in (0, 1]")
_FINITE = _checked(float, "a finite number", math.isfinite)


def _floats(text: str) -> np.ndarray:
    """A comma list of numbers."""
    return np.asarray([float(p) for p in text.split(",")])


def _lq_grid(text: str) -> list[float]:
    """'start:step:stop' (inclusive, its count checked before its list is built) or a
    comma list."""
    if ":" not in text:
        return _floats(text).tolist()
    start, step, stop = (float(p) for p in text.split(":"))
    if not (0.0 < step < math.inf and start <= stop):
        raise ValueError("needs a positive step and stop >= start")
    span = (stop - start) / step + 1e-9  # inf or nan when an end is not finite
    if not span < GRID_POINT_LIMIT:
        raise ValueError("too many points")
    return [start + i * step for i in range(math.floor(span) + 1)]


def _epsilon_grid(text: str) -> np.ndarray:
    """'log:lo:hi:n' (n checked before np.geomspace allocates) or a comma list."""
    if not text.startswith("log:"):
        return _floats(text)
    _, lo, hi, n = text.split(":")
    if int(n) > GRID_POINT_LIMIT:
        raise ValueError("too many points")
    with np.errstate(all="ignore"):  # auth.check_grid refuses a non-finite grid: no warning first
        return np.geomspace(float(lo), float(hi), int(n))


def _gradient_grid(text: str) -> np.ndarray:
    """'start:stop:npoints' for np.linspace (npoints checked before it allocates)."""
    start, stop, count = text.split(":")
    if int(count) > GRADIENT_POINT_LIMIT:
        raise ValueError("too many points")
    with np.errstate(all="ignore"):  # _GRADIENT_GRID refuses a non-finite grid: no warning first
        return np.linspace(float(start), float(stop), int(count))


_LQ_GRID = _checked(_lq_grid,
                    f"start:step:stop or a comma list, at most {GRID_POINT_LIMIT} finite dB",
                    lambda v: len(v) <= GRID_POINT_LIMIT and all(map(math.isfinite, v)))
_EPSILONS = _checked(lambda text: auth.check_grid(_epsilon_grid(text)),
                     "a strictly increasing comma list or log:lo:hi:n of finite nonnegative "
                     f"thresholds, at most {GRID_POINT_LIMIT} log points")
_GRADIENT_GRID = _checked(_gradient_grid,
                          f"start:stop:npoints of 1 to {GRADIENT_POINT_LIMIT} finite points",
                          lambda g: g.size > 0 and np.all(np.isfinite(g)))
_PHASES = _checked(_floats, "a comma list of finite phases", lambda v: np.all(np.isfinite(v)))


def _add_common(p):
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--seed", type=_SEED, default=1, help="master seed (default 1)")
    p.add_argument("--trials", type=_COUNT, default=10**6,
                   help="Monte-Carlo trials (default 1000000)")
    p.add_argument("--workers", type=_COUNT, default=1,
                   help="engine threads, at most one per chunk and one per CPU (default 1)")


def _add_feature_opts(p):
    p.add_argument("--feature", choices=[f.value for f in Feature], default="pathloss")
    p.add_argument("--gradient", type=_FINITE, default=None,
                   help="phase gradient rad/m for the pathloss feature (default 0)")
    p.add_argument("--phases", type=_PHASES, default=None,
                   help="comma-separated element phases for CIR features (default all zero)")
    p.add_argument("--freeze-alice", action="store_true",
                   help="pin the legitimate channel to the enrollment realization (CIR features)")
    p.add_argument("--baseline", choices=["ris", "no-ris", "both"], default="ris")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rispla",
                     description="RIS-assisted physical-layer authentication lab")
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd in ("sweep-pfa", "sweep-pmd"):
        p = sub.add_parser(cmd, help=f"{cmd} against link quality")
        _add_common(p)
        _add_feature_opts(p)
        p.add_argument("--lq-grid", type=_LQ_GRID, default="0:2:40",
                       help="dB grid, start:step:stop or comma list (default 0:2:40)")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--epsilon", type=_THRESHOLD, default=None)
        group.add_argument("--target-pfa", type=_PROBABILITY, default=None)
        p.add_argument("--output", required=True)
        p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("roc", help="operating characteristic over thresholds")
    _add_common(p)
    _add_feature_opts(p)
    p.add_argument("--lq-db", type=_FINITE, default=None, help="override scenario link quality")
    p.add_argument("--epsilons", type=_EPSILONS, default=None,
                   help="comma list or log:lo:hi:n (default: auto from the statistic range)")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_roc)

    p = sub.add_parser("optimize-gradient", help="grid search of the phase gradient")
    p.add_argument("--scenario", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=_THRESHOLD, default=None)
    group.add_argument("--target-pfa", type=_PROBABILITY, default=None)
    p.add_argument("--grid", type=_GRADIENT_GRID, default=None, help="start:stop:npoints (default: lobe span, 1e4 points)")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_optimize_gradient)

    p = sub.add_parser("optimize-phases", help="discrete per-element phase search")
    p.add_argument("--scenario", required=True)
    p.add_argument("--epsilon", type=_THRESHOLD, required=True)
    p.add_argument("--levels", type=_LEVELS, default=16)
    p.add_argument("--strategy", choices=["exhaustive", "coordinate"], default="coordinate")
    p.add_argument("--budget", type=_COUNT, default=10**7, help="total trial budget")
    p.add_argument("--eval-trials", type=_COUNT, default=10**4, help="trials per candidate")
    p.add_argument("--seed", type=_SEED, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_optimize_phases)

    p = sub.add_parser(
        "validate", help="acceptance criteria C01-C08: closed forms vs Monte Carlo, and the "
        "zero-pmd optima",
        description="C01, C03, C04 and C05 read --trials; C02 and C06-C08 run at fixed sizes. "
        "C01 and C03 each take the largest |z| of 20 independent points against 3 "
        "standard errors, so a correct engine fails each by chance at about 5% of trial "
        "counts: --trials 100000 is one (C01 reads 3.01 against 3.0).")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trials", type=_COUNT, default=10**6)
    p.set_defaults(handler=_cmd_validate)

    return parser


# built once, at import, and shared by every main() call of the process: parse_args keeps
# nothing between calls, and --lq-grid's default is converted afresh by each parse
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioFormatError, UsageError, GeometryError, EvanescentError) as exc:
        print(f"rispla: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"rispla: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"rispla: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
