"""Monte-Carlo trial engine for empirical error probabilities and ROC curves.

Randomness is counter-based: trial i consumes a block of 4N + 4 uniforms
(N decoded elements; `_stream` holds all a decode reads) from a Philox stream
advanced to a position that depends only on (master_seed, i). Normals come
from Box-Muller on those uniforms, never a rejection sampler, so any
partition of the trial range across chunks or threads reproduces the same
trials bit for bit. Block 0 is reserved for fingerprint enrollment.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from numpy.random import Generator, Philox

from .auth import Feature, accepts, check_threshold, count_accepted, statistic
from .channel import PerElement, PhaseProfile, ScalarGradient, Scenario, pathloss_pair

__all__ = [
    "Hypothesis",
    "TrialPlan",
    "Draws",
    "ErrorEstimate",
    "RocCurve",
    "run_trials",
    "sweep_trials",
    "roc_sweep",
    "empirical_distribution",
    "decode",
    "score",
    "attacker_draws",
]

TWO_PI = 2.0 * math.pi

LOW_CONFIDENCE_TRIALS = 100

# roc_sweep's auto grid: ROC_AUTO_POINTS thresholds, log-spaced from ROC_LO_SCALE x the smallest
# positive to ROC_HI_SCALE x the largest forced-H0/H1 statistic of the first ROC_PILOT_TRIALS.
ROC_PILOT_TRIALS, ROC_AUTO_POINTS, ROC_LO_SCALE, ROC_HI_SCALE = 10_000, 50, 0.5, 1.05


class Hypothesis(Enum):
    H0 = "h0"  # legitimate transmitter
    H1 = "h1"  # attacker


@dataclass(frozen=True)
class TrialPlan:
    """Everything one Monte-Carlo run depends on.

    refade_alice controls whether the legitimate channel is redrawn each
    transmission (True) or pinned to the enrollment realization (False);
    the closed-form magnitude false alarm corresponds to the pinned mode.
    ris=False swaps the reflected link for the direct-channel baseline.
    """

    n_trials: int
    master_seed: int
    feature: Feature
    scenario: Scenario
    profile: PhaseProfile
    refade_alice: bool = True
    ris: bool = True

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in 64 bits")
        if self.feature is Feature.PATHLOSS:
            if not isinstance(self.profile, ScalarGradient):
                raise ValueError("pathloss feature requires a ScalarGradient profile")
        else:
            if not isinstance(self.profile, PerElement):
                raise ValueError("CIR features require a PerElement profile")
            if self.profile.phases.size != self.scenario.n_elements:
                raise ValueError(
                    f"profile has {self.profile.phases.size} phases, "
                    f"scenario has {self.scenario.n_elements} elements"
                )


@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical probability with a binomial 95% half-width."""

    value: float
    half_width_95: float
    n_conditioning: int

    @classmethod
    def from_counts(cls, successes: int, n: int) -> "ErrorEstimate":
        if n == 0:
            return cls(value=math.nan, half_width_95=0.0, n_conditioning=0)
        v = successes / n
        return cls(value=v, half_width_95=1.96 * math.sqrt(v * (1.0 - v) / n), n_conditioning=n)

    @property
    def low_confidence(self) -> bool:
        return self.n_conditioning < LOW_CONFIDENCE_TRIALS


@dataclass(frozen=True)
class RocCurve:
    """Operating points (threshold, false alarm, detection) from one sample pass."""

    epsilons: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray


# ---------------------------------------------------------------------------
# Counter-based trial generation
# ---------------------------------------------------------------------------


def _stream(plan: TrialPlan) -> tuple:
    """(master_seed, n_trials, N, g_scale), all decode() reads: plans with equal streams decode
    the same draws. N elements are decoded per trial (0 for pathloss, 1 for the direct link),
    in blocks of 4N + 4 uniforms, a multiple of the Philox advance unit."""
    if plan.feature is Feature.PATHLOSS:
        return plan.master_seed, plan.n_trials, 0, 1.0
    n, g_scale = (plan.scenario.n_elements, plan.scenario.sigma_g_sq) if plan.ris else (1, 1.0)
    return plan.master_seed, plan.n_trials, n, g_scale


def _uniform_blocks(master_seed: int, stride: int, first_block: int, n_blocks: int) -> np.ndarray:
    bit_gen = Philox(key=master_seed)
    bit_gen.advance((first_block * stride) >> 2)  # advance unit = 4 doubles
    return Generator(bit_gen).random((n_blocks, stride))


def _polar(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller radius sqrt(-2 ln(1 - u)) and angle 2 pi v, each one new array."""
    rad = np.negative(u)
    np.log1p(rad, out=rad)
    np.multiply(rad, -2.0, out=rad)
    np.sqrt(rad, out=rad)
    return rad, np.multiply(TWO_PI, v)


def _polar_blocks(master_seed: int, stride: int, first_block: int, m: int):
    """The transmitter draw (Alice below 0.5) and the Box-Muller radius and angle of the
    uniform pairs after it, of m blocks from first_block; the uniforms are freed on return."""
    block = _uniform_blocks(master_seed, stride, first_block, m)
    return (block[:, 0] < 0.5, *_polar(block[:, 1:-1:2], block[:, 2::2]))


def _scaled_complex(re: np.ndarray, im: np.ndarray, scale: float) -> np.ndarray:
    """scale * (re + 1j * im), each product written straight into its plane."""
    out = np.empty(re.shape, complex)
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


def _cir_vectors(master_seed: int, n: int, sigma_g_sq: float, first_block: int, m: int):
    """Decode m uniform blocks of n elements from first_block into the transmitter draw
    and the (h, g, noise_unit) complex vectors.

    Scaling by 1 / sqrt(2) is what numpy's complex division by sqrt(2) multiplies
    by (Smith's rule), so h and noise_unit keep the bits of that division.
    """
    is_alice, rad, ang = _polar_blocks(master_seed, 4 * n + 4, first_block, m)
    z = np.empty((m, 2 * n + 1, 2))  # Box-Muller pair k fills columns 2k and 2k + 1
    np.multiply(rad, np.cos(ang), out=z[:, :, 0])
    np.multiply(rad, np.sin(ang, out=ang), out=z[:, :, 1])
    del rad, ang  # freed before h and g are allocated, so the planes do not raise the peak
    z = z.reshape(m, 4 * n + 2)
    unit = 1.0 / math.sqrt(2.0)
    h = _scaled_complex(z[:, 0:n], z[:, n : 2 * n], unit)
    g = _scaled_complex(z[:, 2 * n : 3 * n], z[:, 3 * n : 4 * n], math.sqrt(sigma_g_sq / 2.0))
    return is_alice, h, g, _scaled_complex(z[:, 4 * n], z[:, 4 * n + 1], unit)


def _cascade(h: np.ndarray, g: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per-trial cascaded gain sum_n conj(h_n) exp(j psi_n) g_n over rows of h and g."""
    return np.einsum("ij,j,ij->i", np.conj(h), np.exp(1j * phases), g)


@dataclass(frozen=True)
class Draws:
    """Decoded draws of a run of trial blocks, for any phase profile.

    noise has unit variance: real for the pathloss feature, CN(0, 1) for the
    CIR features, which also carry the fading h and g (blocks x decoded
    elements) and the enrollment's h0 and g0 (block 0, one row each). Nothing
    here depends on the profile, so one decode serves every candidate of a
    search under common random numbers.
    """

    is_alice: np.ndarray
    noise: np.ndarray
    h: np.ndarray | None = None
    g: np.ndarray | None = None
    h0: np.ndarray | None = None
    g0: np.ndarray | None = None


def decode(plan: TrialPlan, first_block: int, n_blocks: int) -> Draws:
    """Decode uniform blocks [first_block, first_block + n_blocks), and block 0 for CIR.

    Trial i reads block i + 1; block 0 is the enrollment. Each block's first
    uniform draws the transmitter: Alice below 0.5.
    """
    seed, _, n, g_scale = _stream(plan)
    if n == 0:  # pathloss: stride 4
        is_alice, rad, ang = _polar_blocks(seed, 4, first_block, n_blocks)
        return Draws(is_alice, (rad * np.cos(ang))[:, 0])  # the cosine half of Box-Muller only
    is_alice, h, g, noise_unit = _cir_vectors(seed, n, g_scale, first_block, n_blocks)
    _, h0, g0, _ = _cir_vectors(seed, n, g_scale, 0, 1)
    return Draws(is_alice, noise_unit, h, g, h0[0], g0[0])


def _forced(draws: Draws, hypothesis: Hypothesis, k: int | None = None) -> Draws:
    """The first k draws (views; all by default) with the transmitter fixed: all a forced
    hypothesis changes."""
    h, g = (None if a is None else a[:k] for a in (draws.h, draws.g))
    noise = draws.noise[:k]
    return replace(draws, is_alice=np.full(noise.size, hypothesis is Hypothesis.H0),
                   noise=noise, h=h, g=g)


def score(plan: TrialPlan, draws: Draws) -> np.ndarray:
    """Test statistic of each decoded trial under plan's profile.

    The CIR features compare with the fingerprint gt enrolled from the draws'
    block 0; the pathloss feature's enrolled value is the closed-form pathloss.
    """
    sigma_n = plan.scenario.noise_sigma
    if plan.feature is Feature.PATHLOSS:
        pl_a, pl_e = pathloss_pair(plan.scenario, plan.profile.gradient, plan.ris)
        pl_true = np.where(draws.is_alice, pl_a, pl_e)
        return statistic(plan.feature, pl_true + sigma_n * draws.noise, pl_a)
    if plan.ris:
        cascade = _cascade(draws.h, draws.g, plan.profile.phases)
        # np.sum, not _cascade: einsum sums in another order, which changes the
        # last bits of the fingerprint and with them the committed outputs
        gt = complex(np.sum(np.conj(draws.h0) * np.exp(1j * plan.profile.phases) * draws.g0))
    else:
        cascade, gt = draws.h[:, 0], complex(draws.h0[0])  # direct link: one CN(0, 1) gain
    if not plan.refade_alice:
        cascade = np.where(draws.is_alice, gt, cascade)
    return statistic(plan.feature, cascade + sigma_n * draws.noise, gt)


def _default_chunk(plan: TrialPlan) -> int:
    return max(1024, (1 << 22) // (4 * _stream(plan)[2] + 4))


def _map_trials(reduce, plan: TrialPlan, n: int, workers: int) -> list:
    """reduce(lo, decode(plan, lo + 1, hi - lo)) for each default chunk [lo, hi) of trials [0, n).

    The one place the trial range is split: serially, or on a thread pool of
    `workers` threads, at most one per chunk and one per CPU, so a one-chunk
    call starts no pool. A chunk that raises cancels the chunks not yet
    started. Chunk results are returned in trial order.
    """
    chunk = _default_chunk(plan)
    starts = range(0, n, chunk)

    def run(lo):
        return reduce(lo, decode(plan, lo + 1, min(chunk, n - lo)))

    workers = min(workers, len(starts), os.cpu_count() or 1)
    if workers < 2:
        return [run(lo) for lo in starts]
    pool = ThreadPoolExecutor(workers)
    try:
        return list(pool.map(run, starts))
    finally:
        pool.shutdown(cancel_futures=True)


def _counts(draws, points) -> np.ndarray:
    """Rows (n_alice, n_eve), then (rejects_alice, accepts_eve) per (plan, epsilon) point."""
    is_alice = draws.is_alice
    n0 = np.count_nonzero(is_alice)
    counts = [(n0, is_alice.size - n0)]
    for point, epsilon in points:
        accept = accepts(score(point, draws), epsilon)
        counts.append((np.count_nonzero(is_alice & ~accept),
                       np.count_nonzero(~is_alice & accept)))
    return np.array(counts, dtype=np.int64)


def _tally(alice, eve, eps) -> np.ndarray:
    """Rows (Alice, Eve) from sorted statistics: trials, then the accepted count per threshold."""
    return np.array([[ts.size, *count_accepted(ts, eps)] for ts in (alice, eve)], dtype=np.int64)


def attacker_draws(plan: TrialPlan) -> list[Draws]:
    """Decoded attacker (H1) trials [0, plan.n_trials), in the engine's default chunks.

    score() on each chunk gives the statistics that
    empirical_distribution(plan, H1, plan.n_trials) draws, before the sort.
    """
    return _map_trials(lambda lo, draws: _forced(draws, Hypothesis.H1), plan, plan.n_trials, 1)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def run_trials(plan: TrialPlan, epsilon: float, *,
               workers: int = 1) -> tuple[ErrorEstimate, ErrorEstimate]:
    """Empirical (false alarm, missed detection) at threshold epsilon.

    The transmitter is drawn uniformly per trial. Deterministic for fixed
    (master_seed, n_trials) for any partition or worker count; merging is
    integer-count summation.
    """
    return sweep_trials([plan], [epsilon], workers=workers)[0]


def sweep_trials(plans, epsilons, *,
                 workers: int = 1) -> list[tuple[ErrorEstimate, ErrorEstimate]]:
    """run_trials(plans[k], epsilons[k]) for every k, from one decode per random stream.

    Plans that share a random stream (master_seed, n_trials, decoded elements
    and fading scale; see _stream) decode the same draws; they may differ in
    everything decode() does not read: link quality, profile, statistic,
    refade_alice, and for the pathloss feature the baseline. The plans are
    grouped by stream in first-seen order, and each stream's default chunks
    are decoded once and scored at every point of the stream, on one thread
    pool per stream when workers > 1 (see _map_trials). The counts equal those
    of one run_trials call per point, and the results come back in input order.
    """
    if not plans or len(plans) != len(epsilons):
        raise ValueError(f"need one epsilon per plan, got {len(plans)} plans "
                         f"and {len(epsilons)} epsilons")
    epsilons = [check_threshold(epsilon) for epsilon in epsilons]
    streams: dict[tuple, list[int]] = {}  # dicts keep first-seen order
    for k, plan in enumerate(plans):
        streams.setdefault(_stream(plan), []).append(k)
    results = [None] * len(plans)
    for ks in streams.values():
        plan = plans[ks[0]]
        points = [(plans[k], epsilons[k]) for k in ks]
        counts = sum(_map_trials(lambda lo, draws: _counts(draws, points), plan, plan.n_trials,
                                 workers))
        (n0, n1), *per_point = counts.tolist()
        for k, (rejects_alice, accepts_eve) in zip(ks, per_point):
            results[k] = (ErrorEstimate.from_counts(rejects_alice, n0),
                          ErrorEstimate.from_counts(accepts_eve, n1))
    return results


def roc_sweep(plan: TrialPlan, epsilons=None, *, workers: int = 1) -> RocCurve:
    """Operating points for many thresholds from a single sample pass.

    All thresholds see the same per-trial statistics, so the resulting pfa
    and pd are each monotone along the curve. A given grid is counted per
    chunk. Without epsilons the auto grid is picked from the same decode,
    its pilot rescored with the transmitter forced; the sorted statistics
    (8 bytes per trial) are held until the grid is known.
    """
    pilot = 0 if epsilons is not None else min(plan.n_trials, ROC_PILOT_TRIALS)

    def stats(lo, draws):
        """Sorted statistics of Alice's and of Eve's trials, then those of the chunk's
        trials below `pilot` under forced H0 and forced H1 (empty past the pilot)."""
        ts = score(plan, draws)
        k = min(pilot - lo, ts.size)
        sample = (np.concatenate([score(plan, _forced(draws, h, k)) for h in Hypothesis])
                  if k > 0 else np.empty(0))
        return np.sort(ts[draws.is_alice]), np.sort(ts[~draws.is_alice]), sample

    if epsilons is not None:
        eps = np.asarray(epsilons, dtype=float)
        if eps.ndim != 1 or eps.size == 0 or np.any(np.diff(eps) <= 0):
            raise ValueError("epsilons must be a nonempty, strictly increasing 1-D sequence")
        for epsilon in eps:
            check_threshold(epsilon)
        counts = sum(_map_trials(lambda lo, draws: _tally(*stats(lo, draws)[:2], eps),
                                 plan, plan.n_trials, workers))
    else:
        alice, eve, samples = zip(*_map_trials(stats, plan, plan.n_trials, workers))
        samples = np.concatenate(samples)
        positive = samples[samples > 0.0]
        lo = ROC_LO_SCALE * float(positive.min()) if positive.size else 1e-12
        hi = ROC_HI_SCALE * float(samples.max()) if samples.max() > 0 else 1.0
        if hi <= lo:
            hi = 10.0 * lo
        eps = np.geomspace(lo, hi, ROC_AUTO_POINTS)
        counts = sum(_tally(a, e, eps) for a, e in zip(alice, eve))

    def rejected(row):  # 1 - #(ts < eps) / n
        n, accepted = row[0], row[1:]
        return 1.0 - accepted / n if n else np.full(eps.size, math.nan)

    return RocCurve(epsilons=eps, pfa=rejected(counts[0]), pd=rejected(counts[1]))


def empirical_distribution(plan: TrialPlan, hypothesis: Hypothesis, n_samples: int) -> np.ndarray:
    """Sorted draws of the test statistic under one fixed hypothesis.

    A CDF lookup on the result at the threshold gives the missed detection
    (H1) or one minus the false alarm (H0).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    parts = _map_trials(lambda lo, draws: score(plan, _forced(draws, hypothesis)), plan,
                        n_samples, workers=1)
    return np.sort(np.concatenate(parts))
