"""Phase-shift design: minimize missed detection over the panel configuration.

The scalar-gradient search evaluates the analytical pathloss missed
detection on a grid. The per-element search minimizes the empirical
phase-feature missed detection; candidates are compared under common random
numbers (one fixed evaluation seed, decoded once per search) so the noisy
objective is a deterministic function of the candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .auth import Feature, accepts, check_threshold, pmd_pathloss
from .channel import PerElement, PhaseProfile, ScalarGradient, Scenario, ris_pathloss_grid
from .mc import TrialPlan, attacker_draws, score

__all__ = [
    "Strategy",
    "OptResult",
    "InfeasibleGridError",
    "SearchBudgetError",
    "default_gradient_grid",
    "optimize_gradient",
    "optimize_phase_matrix",
    "EXHAUSTIVE_CANDIDATE_LIMIT",
    "EVAL_DRAWS_LIMIT",
]

EXHAUSTIVE_CANDIDATE_LIMIT = 10**6
EVAL_DRAWS_LIMIT = 2**30  # bytes of decoded attacker draws one search may hold


class Strategy(Enum):
    EXHAUSTIVE = "exhaustive"
    COORDINATE = "coordinate"


class InfeasibleGridError(ValueError):
    """Every grid point was evanescent; nothing to optimize."""


class SearchBudgetError(ValueError):
    """Requested search exceeds the candidate or trial budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


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
    budget runs out. Lowest-index candidate wins ties. A search whose decoded
    draws (eval_trials * N * 32 bytes) exceed EVAL_DRAWS_LIMIT is refused.
    Each candidate is scored on one decode of the attacker's trials, bit for
    bit as a fresh engine run, and spends eval_trials of the trial budget.
    """
    check_threshold(epsilon)
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if eval_trials < 1 or budget_trials < eval_trials:
        raise SearchBudgetError(
            f"budget_trials must cover at least one evaluation of {eval_trials} trials",
            required=eval_trials,
        )
    n = scenario.n_elements
    draws_bytes = eval_trials * n * 32  # complex h and g per element and trial
    if draws_bytes > EVAL_DRAWS_LIMIT:
        raise SearchBudgetError(
            f"{eval_trials} evaluation trials on {n} elements need {draws_bytes} bytes "
            f"of decoded draws (limit {EVAL_DRAWS_LIMIT}); lower the evaluation trials",
            required=draws_bytes,
        )
    if strategy is Strategy.EXHAUSTIVE:
        n_candidates = levels**n
        if n_candidates > EXHAUSTIVE_CANDIDATE_LIMIT:
            raise SearchBudgetError(
                f"exhaustive search needs {n_candidates} candidate evaluations "
                f"(limit {EXHAUSTIVE_CANDIDATE_LIMIT}); use the coordinate strategy",
                required=n_candidates,
            )
        if n_candidates * eval_trials > budget_trials:
            raise SearchBudgetError(
                f"exhaustive search needs {n_candidates * eval_trials} trials, "
                f"budget is {budget_trials}",
                required=n_candidates * eval_trials,
            )
    phase_values = [2.0 * math.pi * k / levels for k in range(levels)]
    plan = TrialPlan(n_trials=eval_trials, master_seed=rng_seed, feature=Feature.CIR_PHASE,
                     scenario=scenario, profile=PerElement(np.zeros(n)))
    draws = attacker_draws(plan)
    cache: dict[tuple, float] = {}  # pmd per evaluated candidate
    trace: list[tuple[int, float, float]] = []
    best = (math.inf, (0.0,) * n)  # (pmd, phases) of the first minimizer

    def evaluate(coordinate: int, value: float, phases: tuple) -> float:
        nonlocal best
        if phases not in cache:
            required = (len(cache) + 1) * eval_trials
            if required > budget_trials:
                raise SearchBudgetError("trial budget exhausted", required=required)
            candidate = replace(plan, profile=PerElement(np.asarray(phases)))
            misses = sum(int(np.count_nonzero(accepts(score(candidate, d), epsilon)))
                         for d in draws)
            cache[phases] = misses / eval_trials
        pmd = cache[phases]
        trace.append((coordinate, value, pmd))
        if pmd < best[0]:
            best = (pmd, phases)
        return pmd

    if strategy is Strategy.EXHAUSTIVE:
        for idx, combo in enumerate(itertools.product(phase_values, repeat=n)):
            evaluate(1 if n == 1 else idx, combo[0] if n == 1 else float(idx), combo)
    else:  # coordinate passes from the all-zero assignment
        current = [0.0] * n
        changed = True
        try:
            while changed:
                changed = False
                for elem in range(n):
                    pmds = [evaluate(elem + 1, v, tuple(current[:elem] + [v] + current[elem + 1:]))
                            for v in phase_values]
                    value = phase_values[int(np.argmin(pmds))]  # argmin: lowest index on ties
                    changed |= current[elem] != value
                    current[elem] = value
        except SearchBudgetError:
            pass  # return the best candidate evaluated before the budget ran out
    return OptResult(best_profile=PerElement(np.asarray(best[1])), best_pmd=best[0],
                     evaluations=len(cache), trace=trace)
