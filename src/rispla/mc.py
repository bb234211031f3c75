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

from .auth import Feature, accepts, check_grid, count_accepted, statistic
from .channel import PerElement, PhaseProfile, ScalarGradient, Scenario, pathloss_pair

__all__ = [
    "Hypothesis",
    "TrialPlan",
    "Draws",
    "ErrorEstimate",
    "Counts",
    "sweep_trials",
    "empirical_distribution",
    "decode",
    "score",
    "attacker_draws",
]

TWO_PI = 2.0 * math.pi

LOW_CONFIDENCE_TRIALS = 100

# A plan's auto ROC grid: ROC_AUTO_POINTS thresholds, log-spaced from ROC_LO_SCALE x the smallest
# positive to ROC_HI_SCALE x the largest forced-H0/H1 statistic of its first ROC_PILOT_TRIALS.
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
class Counts:
    """Each sender's trials accepted at each threshold of one plan's grid, as Python numbers.

    accepted[k] holds (Alice's, Eve's) count at grid[k], out of n_alice and n_eve trials.
    Under a hypothesis the other sender's trials are not decoded, so its n and counts are 0.
    """

    grid: tuple[float, ...]
    n_alice: int
    n_eve: int
    accepted: tuple[tuple[int, int], ...]

    def false_alarm(self, k: int) -> ErrorEstimate:
        """Alice's trials rejected at grid[k]."""
        return ErrorEstimate.from_counts(self.n_alice - self.accepted[k][0], self.n_alice)

    def missed_detection(self, k: int) -> ErrorEstimate:
        """Eve's trials accepted at grid[k]."""
        return ErrorEstimate.from_counts(self.accepted[k][1], self.n_eve)

    def roc(self) -> tuple[np.ndarray, np.ndarray]:
        """(false alarm, detection) at every threshold: each sender's 1 - accepted / n, NaN
        where the sender has no trial. Every threshold counts the same trials, so both
        fall along the grid."""
        accepted = np.array(self.accepted, dtype=np.int64).reshape(-1, 2)
        return tuple(1.0 - accepted[:, s] / n if n else np.full(len(self.grid), math.nan)
                     for s, n in enumerate((self.n_alice, self.n_eve)))


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


def _polar_blocks(master_seed: int, stride: int, first_block: int, m: int, hypothesis=None):
    """The transmitter draw (Alice below 0.5) and the Box-Muller radius and angle of the
    uniform pairs after it, of m blocks from first_block, or of those of hypothesis's sender
    only (H0: Alice's); the uniforms are freed on return."""
    block = _uniform_blocks(master_seed, stride, first_block, m)
    is_alice = block[:, 0] < 0.5
    if hypothesis is not None:  # whole rows, so _polar takes the same views of fewer rows
        keep = is_alice == (hypothesis is Hypothesis.H0)
        block, is_alice = np.compress(keep, block, axis=0), np.compress(keep, is_alice)
    return (is_alice, *_polar(block[:, 1:-1:2], block[:, 2::2]))


def _scaled_complex(re: np.ndarray, im: np.ndarray, scale: float) -> np.ndarray:
    """scale * (re + 1j * im), each product written straight into its plane."""
    out = np.empty(re.shape, complex)
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


def _cir_vectors(master_seed: int, n: int, sigma_g_sq: float, first_block: int, m: int,
                 hypothesis=None):
    """Decode m uniform blocks of n elements from first_block (those of hypothesis's sender
    only, if given) into the transmitter draw and the (h, g, noise_unit) complex vectors.

    Scaling by 1 / sqrt(2) is what numpy's complex division by sqrt(2) multiplies
    by (Smith's rule), so h and noise_unit keep the bits of that division.
    """
    is_alice, rad, ang = _polar_blocks(master_seed, 4 * n + 4, first_block, m, hypothesis)
    m = is_alice.size  # the rows kept
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


def _fingerprint(draws: Draws, phases: np.ndarray) -> complex:
    """The enrolled cascade gt of block 0 under phases.

    By np.sum, not _cascade: einsum sums in another order, which changes the last bits of
    the fingerprint and with them the committed outputs.
    """
    return complex(np.sum(np.conj(draws.h0) * np.exp(1j * phases) * draws.g0))


# einsum's iterator hands its inner loop at most 8192 elements of a row (numpy's default
# buffer size, which np.setbufsize does not change); each inner loop sums its elements from
# +0.0 and then adds that sum to the row's output
_EINSUM_BLOCK = 8192


def _element_term(planes: np.ndarray, factor: complex, out: np.ndarray) -> None:
    """One element's cascade term (conj(h) * factor) * g of every trial, into out.

    planes holds the element's conj(h) re/im and g re/im planes. Each complex product is
    einsum's: two real products and their difference, two and their sum, each rounded on
    its own. numpy's complex multiply may fuse a product into the sum (FMA), which would
    change the last bits.
    """
    hr, hi, gr, gi = planes
    re = hr * factor.real - hi * factor.imag
    im = hr * factor.imag + hi * factor.real
    np.subtract(re * gr, im * gi, out=out.real)
    np.add(re * gi, im * gr, out=out.imag)


class _RunningCascade:
    """_cascade of a run of CIR draws for a sequence of phase vectors, bit for bit.

    The cascade is summed as einsum sums it: each element's term in element order, from
    +0.0 in blocks of _EINSUM_BLOCK elements, the block sums then added in order. Element
    j's term is kept while its factor exp(j psi_j) is unchanged, and the running sums of the
    longest prefix of elements that the vector shares with the previous one are kept and
    reused; past that prefix the sum runs in place in one buffer, which numpy adds to about
    three times as fast as it writes a new running sum per element. A vector that differs
    from the last in element k alone costs one term and N - k adds, instead of a conj copy
    and a sum over all N elements. Every sum is per trial, so its bits do not depend on how
    many trials are held. The run's planes are allocated once and written a chunk at a time
    (write); a chunk's h and g are dropped once written (see nbytes).
    """

    @staticmethod
    def nbytes(n_trials: int, n: int) -> int:
        """Bytes held for n_trials draws on n elements: per element and trial 32 of conj(h)
        and g planes, 16 of kept term and 16 of running sum; per trial 16 of noise and 1 of
        transmitter flag. While a chunk is written, its h and g stand in for the terms and
        sums, which are written only once the search scores."""
        return n_trials * (64 * n + 17)

    def __init__(self, n_trials: int):
        self.n_trials = n_trials
        self.draws = None  # the run's draws but h and g, once a chunk is written

    def write(self, lo: int, draws: Draws) -> None:
        """Hold a chunk's draws as trials [lo, lo + m) of the run."""
        if self.draws is None:  # allocated once the first chunk is decoded: the buffers that
            # its decode freed are reused, where allocating first faults in fresh pages
            n, n_trials = draws.h.shape[1], self.n_trials
            self.planes = np.empty((n, 4, n_trials))  # element j: conj(h) re, im, g re, im
            self.noise = np.empty(n_trials, complex)
            self.is_alice = np.empty(n_trials, bool)
            self.terms = np.empty((n, n_trials), complex)
            self.sums = np.empty((n, n_trials), complex)  # each block's running sum to element j
            self.factors = np.full(n, math.nan, complex)  # of the kept terms: none yet
            self.summed = 0  # elements whose running sums are kept
        rows = slice(lo, lo + draws.noise.size)
        planes = self.planes[:, :, rows]
        np.copyto(planes[:, 0], draws.h.real.T)
        # negated on the way in: in numpy 2.4.6, negating a one-trial slice of planes in place
        # reads the wrong elements
        np.negative(draws.h.imag.T, out=planes[:, 1])
        np.copyto(planes[:, 2], draws.g.real.T)
        np.copyto(planes[:, 3], draws.g.imag.T)
        self.noise[rows], self.is_alice[rows] = draws.noise, draws.is_alice
        self.draws = replace(draws, is_alice=self.is_alice, noise=self.noise, h=None, g=None)

    def __call__(self, phases: np.ndarray) -> np.ndarray:
        """The run's cascade under phases."""
        factors = np.exp(1j * phases)  # as _cascade computes them
        n = factors.size
        # bits, not values: the kept term of a factor is valid for that factor's bits only
        changed = (factors.view(np.uint64) != self.factors.view(np.uint64)).reshape(n, 2)
        changed = changed.any(axis=1)
        for j in np.flatnonzero(changed).tolist():
            _element_term(self.planes[j], complex(factors[j]), self.terms[j])
        self.factors = factors
        shared = int(np.argmax(changed)) if changed.any() else n
        for j in range(self.summed, shared):
            np.add(self.terms[j], self.sums[j - 1] if j % _EINSUM_BLOCK else 0.0,
                   out=self.sums[j])
        self.summed = shared
        cascade = 0.0  # einsum's output starts at +0.0 and adds each block's sum
        for lo in range(0, n, _EINSUM_BLOCK):
            end = min(lo + _EINSUM_BLOCK, n) - 1
            if end < shared:
                block = self.sums[end]
            else:
                start = max(lo, shared)
                block = self.terms[start] + (self.sums[start - 1] if start > lo else 0.0)
                for j in range(start + 1, end + 1):
                    np.add(self.terms[j], block, out=block)
            cascade = block + cascade
        return cascade

    def score(self, plan: TrialPlan) -> np.ndarray:
        """score(plan, draws) on the held draws, for a reflected-link CIR plan."""
        phases = plan.profile.phases
        gains = {(True, phases.tobytes()): (self(phases), _fingerprint(self.draws, phases))}
        return _score(plan, self.draws, gains)


@dataclass(frozen=True)
class Draws:
    """Decoded draws of a run of trial blocks, for any phase profile.

    noise has unit variance: real for the pathloss feature, CN(0, 1) for the
    CIR features, which also carry the fading h and g (blocks x decoded
    elements) and the enrollment's h0 and g0 (block 0, one row each). Nothing
    here depends on the profile, so one decode serves every candidate of a
    search under common random numbers. A decode for one hypothesis holds the
    rows of that sender's trials only, in trial order.
    """

    is_alice: np.ndarray
    noise: np.ndarray
    h: np.ndarray | None = None
    g: np.ndarray | None = None
    h0: np.ndarray | None = None
    g0: np.ndarray | None = None


def decode(plan: TrialPlan, first_block: int, n_blocks: int,
           hypothesis: Hypothesis | None = None) -> Draws:
    """Decode uniform blocks [first_block, first_block + n_blocks), and block 0 for CIR.

    Trial i reads block i + 1; block 0 is the enrollment. Each block's first
    uniform draws the transmitter: Alice below 0.5. Given a hypothesis, only the
    blocks whose transmitter is its sender are decoded past that draw.
    """
    seed, _, n, g_scale = _stream(plan)
    if n == 0:  # pathloss: stride 4
        is_alice, rad, ang = _polar_blocks(seed, 4, first_block, n_blocks, hypothesis)
        return Draws(is_alice, (rad * np.cos(ang))[:, 0])  # the cosine half of Box-Muller only
    is_alice, h, g, noise_unit = _cir_vectors(seed, n, g_scale, first_block, n_blocks, hypothesis)
    _, h0, g0, _ = _cir_vectors(seed, n, g_scale, 0, 1)
    return Draws(is_alice, noise_unit, h, g, h0[0], g0[0])


def _forced(draws: Draws, hypothesis: Hypothesis, k: int | None = None) -> Draws:
    """The first k draws (views; all by default) with the transmitter fixed: all a forced
    hypothesis changes."""
    h, g = (None if a is None else a[:k] for a in (draws.h, draws.g))
    noise = draws.noise[:k]
    return replace(draws, is_alice=np.full(noise.size, hypothesis is Hypothesis.H0),
                   noise=noise, h=h, g=g)


def _pathloss_pair(plan: TrialPlan, pairs: dict) -> tuple[float, float]:
    """plan's (Alice's, Eve's) pathloss, kept in pairs by all that it depends on: the
    scenario but its link quality, the gradient and the baseline."""
    key = plan.ris, plan.profile.gradient, plan.scenario.geometry_key
    if key not in pairs:
        pairs[key] = pathloss_pair(plan.scenario, plan.profile.gradient, plan.ris)
    return pairs[key]


def _observed(pl_true, sigma_n, noise):
    """The pathloss Bob measures: the sender's pathloss plus sigma_n times unit noise."""
    return pl_true + sigma_n * noise


def score(plan: TrialPlan, draws: Draws) -> np.ndarray:
    """Test statistic of each decoded trial under plan's profile.

    The CIR features compare with the fingerprint gt enrolled from the draws'
    block 0; the pathloss feature's enrolled value is the closed-form pathloss.
    """
    return _score(plan, draws, {})


def _score(plan: TrialPlan, draws: Draws, gains: dict) -> np.ndarray:
    """score(), keeping each CIR gain (cascade, gt) in gains by (baseline, phases), and each
    pathloss pair as _pathloss_pair does, so that plans and forced runs that share them
    compute them once. The first score of a CIR key must be of the full draws: a forced run
    of their first k trials slices the cascade."""
    sigma_n = plan.scenario.noise_sigma
    if plan.feature is Feature.PATHLOSS:
        pl_a, pl_e = _pathloss_pair(plan, gains)
        pl_true = np.where(draws.is_alice, pl_a, pl_e)
        return statistic(plan.feature, _observed(pl_true, sigma_n, draws.noise), pl_a)
    key = plan.ris, plan.profile.phases.tobytes()
    if key not in gains and not plan.ris:
        gains[key] = draws.h[:, 0], complex(draws.h0[0])  # direct link: one CN(0, 1) gain
    elif key not in gains:
        phases = plan.profile.phases
        gains[key] = _cascade(draws.h, draws.g, phases), _fingerprint(draws, phases)
    cascade, gt = gains[key][0][:draws.noise.size], gains[key][1]
    if not plan.refade_alice:
        cascade = np.where(draws.is_alice, gt, cascade)
    return statistic(plan.feature, cascade + sigma_n * draws.noise, gt)


def _default_chunk(plan: TrialPlan) -> int:
    """Trials per engine chunk: 2^19 uniforms (4 MiB, near the cache) over a trial's 4N + 4,
    at least one. Fewer make per-chunk overhead dominate and split 10^5 pathloss trials."""
    return max(1, (1 << 19) // (4 * _stream(plan)[2] + 4))


def _map_trials(reduce, plan: TrialPlan, n: int, workers: int, hypothesis=None) -> list:
    """reduce(lo, decode(plan, lo + 1, hi - lo, hypothesis)) for each default chunk [lo, hi) of
    trials [0, n).

    The one place the trial range is split: serially, or on a thread pool of
    `workers` threads, at most one per chunk and one per CPU, so a one-chunk
    call starts no pool. A chunk that raises cancels the chunks not yet
    started. Chunk results are returned in trial order.
    """
    chunk = _default_chunk(plan)
    starts = range(0, n, chunk)

    def run(lo):
        return reduce(lo, decode(plan, lo + 1, min(chunk, n - lo), hypothesis))

    workers = min(workers, len(starts), os.cpu_count() or 1)
    if workers < 2:
        return [run(lo) for lo in starts]
    pool = ThreadPoolExecutor(workers)
    try:
        return list(pool.map(run, starts))
    finally:
        pool.shutdown(cancel_futures=True)


def _accepted_run(noise, pl_true, pl_a, sigma_n, eps) -> np.ndarray:
    """#accepts(statistic) over one sender's pathloss trials, from their ascending unit noise,
    at each point of the 1-D arrays pl_true, pl_a, sigma_n and eps.

    Each rounded step of pl_true + sigma_n * n - pl_a (a multiply by sigma_n >= 0, an add, a
    subtract) is monotone in n, so over ascending n the statistic falls up to the fold (the
    first n observed at or above pl_a) and rises after it: the accepted trials are one run
    around the fold. The fold and both ends are bisected for all points at once, each probe
    through score's IEEE operations, so the counts are score's exactly.
    """
    def first(lo, hi, key):  # per point, the first index in [lo, hi) whose noise has key, or hi
        lo, hi = np.broadcast_to(lo, eps.shape), np.broadcast_to(hi, eps.shape)
        while np.any(lo < hi):
            mid, active = (lo + hi) // 2, lo < hi
            true = key(noise[np.minimum(mid, noise.size - 1)])  # a settled point's mid may be hi
            lo, hi = np.where(active & ~true, mid + 1, lo), np.where(active & true, mid, hi)
        return lo

    def accepted(n):
        return accepts(statistic(Feature.PATHLOSS, _observed(pl_true, sigma_n, n), pl_a), eps)

    fold = first(0, noise.size, lambda n: _observed(pl_true, sigma_n, n) >= pl_a)
    return first(fold, noise.size, lambda n: ~accepted(n)) - first(0, fold, accepted)


def _counts(pairs, grids, points) -> np.ndarray:
    """Rows (n_alice, n_eve), then (Alice's, Eve's) accepted count per threshold of each plan's
    grid, from a chunk's sorted pairs: CIR statistics, or pathloss plans' shared unit noise
    with each plan's point (Alice's pathloss, Eve's pathloss, noise sigma)."""
    rows = [tuple(part.size for part in pairs[0])]
    if points is None:
        for eps, (alice, eve) in zip(grids, pairs):
            rows.extend(zip(count_accepted(alice, eps), count_accepted(eve, eps)))
    else:
        pl_a, pl_e, sigma_n = np.repeat(points, [len(eps) for eps in grids], axis=0).T
        eps, ((alice, eve),) = np.concatenate(grids), pairs
        rows.extend(zip(_accepted_run(alice, pl_a, pl_a, sigma_n, eps),
                        _accepted_run(eve, pl_e, pl_a, sigma_n, eps)))
    return np.array(rows, dtype=np.int64)


def attacker_draws(plan: TrialPlan) -> _RunningCascade:
    """Decoded attacker (H1) trials [0, plan.n_trials) of a reflected-link CIR plan, held as
    one running cascade that each default chunk is written into once decoded (freeing its h
    and g before the next decode); its scores are the statistics that
    empirical_distribution(plan, H1) draws, unsorted."""
    held = _RunningCascade(plan.n_trials)
    _map_trials(lambda lo, draws: held.write(lo, _forced(draws, Hypothesis.H1)), plan,
                plan.n_trials, 1)
    return held


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def sweep_trials(plans, grids=None, *, hypothesis: Hypothesis | None = None,
                 workers: int = 1) -> list[Counts]:
    """The Counts of each plan at each threshold of its grid, from one decode per random stream.

    grids holds one strictly increasing threshold sequence per plan; None gives every plan
    the auto grid (see ROC_PILOT_TRIALS), picked from the same decode. Plans that share a
    random stream (see _stream) decode the same draws, so they may differ in all that
    decode() does not read: link quality, profile, statistic, refade_alice, and for pathloss
    the baseline. Streams go in first-seen order, each on one thread pool when workers > 1
    (_map_trials). The counts are integer sums over chunks, so they do not depend on the
    partition, the worker count or the other plans of the call. A hypothesis decodes past the
    transmitter draw only its sender's trials (H0: Alice's); the auto grid's pilot reads both
    senders, so it takes none. A chunk sorts once per distinct statistic and counts a given
    grid, or holds its sorted values (8 B per trial, shared by pathloss plans) until the
    pilot picks the grid.
    """
    if not plans or grids is not None and len(grids) != len(plans):
        raise ValueError(f"need one grid per plan, got {len(plans)} plans and "
                         f"{'no' if grids is None else len(grids)} grids")
    if grids is None and hypothesis is not None:
        raise ValueError("the auto grid's pilot reads both senders: give grids with a hypothesis")
    grids = [None] * len(plans) if grids is None else [check_grid(grid) for grid in grids]
    results = [None] * len(plans)
    streams: dict[tuple, list[int]] = {}  # dicts keep first-seen order
    for k, plan in enumerate(plans):
        streams.setdefault(_stream(plan), []).append(k)
    for ks in streams.values():
        group, own = [plans[k] for k in ks], [grids[k] for k in ks]
        pilot = min(group[0].n_trials, ROC_PILOT_TRIALS) if own[0] is None else 0
        pathloss, points = {}, None  # each distinct pathloss pair of the stream, computed once
        if group[0].feature is Feature.PATHLOSS:  # a stream's plans are all CIR or all pathloss
            points = [(*_pathloss_pair(p, pathloss), p.scenario.noise_sigma) for p in group]

        def chunk(lo, draws):
            gains = dict(pathloss)  # shared by every score of the chunk (_score)
            values = [draws.noise] if draws.h is None else [_score(p, draws, gains) for p in group]
            masks = draws.is_alice, ~draws.is_alice
            # compress, not a boolean index, which takes 4x as long on a random mask
            pairs = [[np.sort(np.compress(mask, v)) for mask in masks] for v in values]
            if not pilot:
                return _counts(pairs, own, points)
            forced = [_forced(draws, h, max(pilot - lo, 0)) for h in Hypothesis]  # pilot's share
            return pairs, [np.concatenate([_score(p, f, gains) for f in forced]) for p in group]

        parts = _map_trials(chunk, group[0], group[0].n_trials, workers, hypothesis)
        if pilot:
            own = []
            for samples in map(np.concatenate, zip(*(s for _, s in parts))):
                positive = samples[samples > 0.0]
                lo = ROC_LO_SCALE * float(positive.min()) if positive.size else 1e-12
                hi = ROC_HI_SCALE * float(samples.max()) if samples.max() > 0 else 1.0
                own.append(np.geomspace(lo, hi if hi > lo else 10.0 * lo, ROC_AUTO_POINTS))
            parts = [_counts(pairs, own, points) for pairs, _ in parts]
        total = sum(parts)
        n_alice, n_eve = total[0].tolist()
        accepted = np.split(total[1:], np.cumsum([len(grid) for grid in own[:-1]]))
        for k, grid, acc in zip(ks, own, accepted):
            results[k] = Counts(tuple(grid.tolist()), n_alice, n_eve,
                                tuple(map(tuple, acc.tolist())))
    return results


def empirical_distribution(plan: TrialPlan, hypothesis: Hypothesis) -> np.ndarray:
    """Sorted draws of the test statistic of plan's trials under one fixed hypothesis.

    A CDF lookup on the result at the threshold gives the missed detection
    (H1) or one minus the false alarm (H0).
    """
    parts = _map_trials(lambda lo, draws: score(plan, _forced(draws, hypothesis)), plan,
                        plan.n_trials, workers=1)
    return np.sort(np.concatenate(parts))
