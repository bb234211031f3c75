"""Phase-shift design: minimize missed detection over the panel configuration.

The scalar-gradient search evaluates the analytical pathloss missed
detection on a grid. The per-element search minimizes the empirical
phase-feature missed detection; candidates are compared under common random
numbers (one fixed evaluation seed, decoded once per search and held by
mc.attacker_draws, which also describes how a candidate's misses are counted)
so the noisy objective is a deterministic function of the candidate, and each
count, and every trace row, has the bits of a fresh engine run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .auth import check_threshold, pmd_pathloss
from .channel import PerElement, PhaseProfile, ScalarGradient, Scenario, ris_pathloss_grid
from .mc import attacker_draws

__all__ = [
    "Strategy",
    "OptResult",
    "InfeasibleGridError",
    "SearchBudgetError",
    "default_gradient_grid",
    "optimize_gradient",
    "optimize_phase_matrix",
    "EXHAUSTIVE_CANDIDATE_LIMIT",
]

EXHAUSTIVE_CANDIDATE_LIMIT = 10**6


class Strategy(Enum):
    EXHAUSTIVE = "exhaustive"
    COORDINATE = "coordinate"


class InfeasibleGridError(ValueError):
    """Every grid point was evanescent; nothing to optimize."""


class SearchBudgetError(ValueError):
    """Requested search exceeds the candidate or trial budget."""


@dataclass(frozen=True)
class OptResult:
    """Search outcome; trace rows are (coordinate, value, pmd) per evaluation.

    coordinate is 0 for the scalar gradient, the 1-based element number for
    per-element sweeps, and the flat lexicographic candidate index for
    exhaustive enumeration over more than one element (value repeats the
    index so rows stay numeric; decode with base `levels` digits).
    """

    best_profile: PhaseProfile
    best_pmd: float
    evaluations: int
    trace: list[tuple[int, float, float]]
    skipped: list[float] = field(default_factory=list)


def default_gradient_grid(scenario: Scenario, n_points: int = 10_000) -> np.ndarray:
    """Gradient sweep covering the first few reflection lobes.

    The lobe factor depends on the gradient only through
    u = element_b * gradient / (2 * refractive_index), with nulls every
    2*pi*n1/element_b in the gradient; this span covers u in [0, 4*pi],
    i.e. the specular lobe plus three side lobes.
    """
    span = 8.0 * math.pi * scenario.refractive_index / scenario.element_b
    return np.linspace(0.0, span, n_points)


def optimize_gradient(scenario: Scenario, epsilon: float, grid) -> OptResult:
    """Grid search of the analytical pathloss missed detection over gradients.

    The whole grid is scored in one pass over arrays. Evanescent grid points
    (no propagating reflection for either transmitter) are skipped and
    recorded. First minimizer wins ties.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D sequence of gradients")
    pl_a, alice_ok = ris_pathloss_grid(scenario, scenario.alice_pos, grid)
    pl_e, eve_ok = ris_pathloss_grid(scenario, scenario.eve_pos, grid)
    ok = alice_ok & eve_ok
    if not ok.any():
        raise InfeasibleGridError(
            f"all {grid.size} grid points are evanescent for this geometry"
        )
    gradients = grid[ok].tolist()
    pmds = pmd_pathloss(epsilon, scenario.noise_sigma, pl_a[ok], pl_e[ok])
    best = int(np.argmin(pmds))  # argmin keeps the first minimizer
    return OptResult(
        best_profile=ScalarGradient(gradients[best]),
        best_pmd=float(pmds[best]),
        evaluations=len(gradients),
        trace=[(0, g, pmd) for g, pmd in zip(gradients, pmds.tolist())],
        skipped=grid[~ok].tolist(),
    )


def optimize_phase_matrix(
    scenario: Scenario,
    epsilon: float,
    levels: int = 16,
    strategy: Strategy = Strategy.COORDINATE,
    budget_trials: int = 10**7,
    rng_seed: int = 0,
    *,
    eval_trials: int = 10_000,
) -> OptResult:
    """Minimize the empirical phase-feature missed detection over discrete phases.

    Candidate phases for each element are the `levels` uniform points on
    [0, 2*pi). EXHAUSTIVE enumerates every assignment (refused above
    EXHAUSTIVE_CANDIDATE_LIMIT candidates or above the trial budget);
    COORDINATE sweeps elements 1..N in order, fixing each at its best level
    given the others, and repeats passes until no element changes or the
    budget runs out. Lowest-index candidate wins ties.

    Each candidate's missed detections are counted, as a fresh engine run counts them, on
    the attacker trials that mc.attacker_draws holds; it also refuses a search too large to
    hold before decoding. Each candidate spends eval_trials of the trial budget.
    """
    check_threshold(epsilon)
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if eval_trials < 1 or budget_trials < eval_trials:
        raise SearchBudgetError(
            f"budget_trials must cover at least one evaluation of {eval_trials} trials")
    n = scenario.n_elements
    if strategy is Strategy.EXHAUSTIVE:
        n_candidates = levels**n
        if n_candidates > EXHAUSTIVE_CANDIDATE_LIMIT:
            raise SearchBudgetError(
                f"exhaustive search needs {levels}^{n} candidate evaluations "
                f"(limit {EXHAUSTIVE_CANDIDATE_LIMIT}); use the coordinate strategy")
        if n_candidates * eval_trials > budget_trials:
            raise SearchBudgetError(
                f"exhaustive search needs {n_candidates * eval_trials} trials, "
                f"budget is {budget_trials}")

    def phase(k: int) -> float:  # level k, computed per candidate: --levels has no upper bound
        return 2.0 * math.pi * k / levels

    held_draws = attacker_draws(scenario, eval_trials, rng_seed)
    cache: dict[tuple, float] = {}  # pmd per evaluated candidate
    trace: list[tuple[int, float, float]] = []
    best = (math.inf, (0.0,) * n)  # (pmd, phases) of the first minimizer

    def evaluate(coordinate: int, value: float, phases: tuple) -> float:
        nonlocal best
        if phases not in cache:
            if (len(cache) + 1) * eval_trials > budget_trials:
                raise SearchBudgetError("trial budget exhausted")
            cache[phases] = held_draws.misses(np.asarray(phases), epsilon) / eval_trials
        pmd = cache[phases]
        trace.append((coordinate, value, pmd))
        if pmd < best[0]:
            best = (pmd, phases)
        return pmd

    if strategy is Strategy.EXHAUSTIVE:
        # product holds the levels' phases once: at most EXHAUSTIVE_CANDIDATE_LIMIT of them
        for idx, combo in enumerate(itertools.product(map(phase, range(levels)), repeat=n)):
            evaluate(1 if n == 1 else idx, combo[0] if n == 1 else float(idx), combo)
    else:  # coordinate passes from the all-zero assignment
        current = [0.0] * n
        changed = True
        try:
            while changed:
                changed = False
                for elem in range(n):
                    pmds = [evaluate(elem + 1, v, tuple(current[:elem] + [v] + current[elem + 1:]))
                            for v in map(phase, range(levels))]
                    value = phase(int(np.argmin(pmds)))  # argmin: lowest index on ties
                    changed |= current[elem] != value
                    current[elem] = value
        except SearchBudgetError:
            pass  # return the best candidate evaluated before the budget ran out
    return OptResult(best_profile=PerElement(np.asarray(best[1])), best_pmd=best[0],
                     evaluations=len(cache), trace=trace)
