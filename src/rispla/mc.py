"""Monte-Carlo trial engine for empirical error probabilities and ROC curves.

Randomness is counter-based: trial i consumes a block of 4N + 4 uniforms
(N decoded elements; `_stream` holds all a decode reads) from a Philox stream
advanced to a position that depends only on (master_seed, i). Normals come
from Box-Muller on those uniforms, never a rejection sampler, so any
partition of the trial range across chunks or threads reproduces the same
trials bit for bit. Every decode takes trial indices; the fingerprint enrollment is trial -1,
decoded once per run, and _polar_blocks alone maps trial i to block i + 1.

sweep_trials counts CIR trials decided by a bound, re-decoded exactly when undecided. Its
chunks take cos and sin in single precision (all else in double), and each trial's statistic a
carries a rigorous bound e on its distance from the exact decode's (_bounded_score, from the
two-term bound of _observed_gap). Where no threshold of the plan's grid lies in [a - e, a + e],
a falls on the exact statistic's side of every threshold; where one does (or, for the auto
grid, where the trial could give the smallest positive or largest statistic of the pilot, as
each sender's if Alice is pinned), the trial is undecided, and _decode of a chunk's undecided
trials re-decodes them exactly. So every count and auto grid is the exact decode's, bit for bit.
The phase search (attacker_draws) holds such chunks too, and re-decodes the trials that its cone
test leaves undecided (_HeldSearch). decode and empirical_distribution decode exactly.
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
# positive to ROC_HI_SCALE x the largest statistic of its first ROC_PILOT_TRIALS as each sender's.
ROC_PILOT_TRIALS, ROC_AUTO_POINTS, ROC_LO_SCALE, ROC_HI_SCALE = 10_000, 50, 0.5, 1.05

# |cos - libm cos| and |sin - libm sin| of the single-precision decode's trig, which takes the
# float32-rounded angle in [0, 2 pi), are taken to be at most _TRIG_ERROR: twice the largest
# error that tests/test_mc.py allows over 10^7 angles (2.6e-7 is seen, against 4.8e-7)
_TRIG_ERROR = 2.0**-20
_ROUNDOFF = 2.0**-53  # of a double
_HELD_LIMIT = 2**30  # bytes that a phase search's held draws may take (_HeldSearch.nbytes)


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


def _polar_blocks(master_seed: int, stride: int, trials, hypothesis=None):
    """The rows kept (a mask, None for all), and their transmitter draw (Alice below 0.5) and
    Box-Muller radius and angle of the uniform pairs after it, of trials (a range, or an array
    of trial indices; trial i reads block i + 1, so the enrollment, trial -1, reads block 0),
    or of those of hypothesis's sender only (H0: Alice's); the uniforms are freed on return."""
    if isinstance(trials, range):
        block = _uniform_blocks(master_seed, stride, trials.start + 1, len(trials))
    else:  # scattered trials, each block filled from its own counter position
        block = np.concatenate([_uniform_blocks(master_seed, stride, t + 1, 1)
                                for t in trials.tolist()])
    is_alice, keep = block[:, 0] < 0.5, None
    if hypothesis is not None:  # whole rows, so _polar takes the same views of fewer rows
        keep = is_alice == (hypothesis is Hypothesis.H0)
        block, is_alice = np.compress(keep, block, axis=0), np.compress(keep, is_alice)
    return (keep, is_alice, *_polar(block[:, 1:-1:2], block[:, 2::2]))


def _scaled_complex(re: np.ndarray, im: np.ndarray, scale: float) -> np.ndarray:
    """scale * (re + 1j * im), each product written straight into its plane."""
    out = np.empty(re.shape, complex)
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


def _cir_vectors(master_seed: int, n: int, sigma_g_sq: float, trials, hypothesis=None,
                 enrolled=(None, None), exact: bool = True) -> Draws:
    """Decode trials of n elements (a range, or an array of trial indices; those of
    hypothesis's sender only, if given) into Draws of the transmitter draw, the (h, g,
    noise) complex vectors and the enrollment (h0, g0) given.

    exact=False takes cos and sin in single precision, of the angle rounded to float32, and
    also sets each row's trial and power (Draws), which _bounded_score reads. Scaling by
    1 / sqrt(2) is what numpy's complex division by sqrt(2) multiplies by (Smith's rule), so
    h and noise keep the bits of that division.
    """
    keep, is_alice, rad, ang = _polar_blocks(master_seed, 4 * n + 4, trials, hypothesis)
    m, bounds = is_alice.size, {}  # m: the rows kept
    z = np.empty((m, 2 * n + 1, 2))  # Box-Muller pair k fills columns 2k and 2k + 1
    if not exact:  # cos and sin in float32, of the rounded angle
        trials = np.arange(trials.start, trials.stop) if isinstance(trials, range) else trials
        power = [np.einsum("ij,ij->i", r, r)  # the rows' summed squares, per part
                 for r in (rad[:, :n], rad[:, n : 2 * n], rad[:, 2 * n :])]
        bounds = dict(trials=trials if keep is None else trials[keep],
                      power=np.stack(power, axis=1))
        ang = ang.astype(np.float32)
    np.multiply(rad, np.cos(ang), out=z[:, :, 0])
    np.multiply(rad, np.sin(ang, out=ang), out=z[:, :, 1])
    del rad, ang  # freed before h and g are allocated, so the planes do not raise the peak
    z = z.reshape(m, 4 * n + 2)
    unit = 1.0 / math.sqrt(2.0)
    h = _scaled_complex(z[:, 0:n], z[:, n : 2 * n], unit)
    g = _scaled_complex(z[:, 2 * n : 3 * n], z[:, 3 * n : 4 * n], math.sqrt(sigma_g_sq / 2.0))
    noise = _scaled_complex(z[:, 4 * n], z[:, 4 * n + 1], unit)
    return Draws(is_alice, noise, h, g, *enrolled, **bounds)


def _cascade(h: np.ndarray, g: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per-trial cascaded gain sum_n conj(h_n) exp(j psi_n) g_n over rows of h and g."""
    return np.einsum("ij,j,ij->i", np.conj(h), np.exp(1j * phases), g)


def _fingerprint(enrolled: tuple, phases: np.ndarray) -> complex:
    """The cascade gt of the enrollment (h0, g0) under phases.

    By np.sum, not _cascade: einsum sums in another order, which changes the last bits of
    the fingerprint and with them the committed outputs.
    """
    return complex(np.sum(np.conj(enrolled[0]) * np.exp(1j * phases) * enrolled[1]))


class _HeldSearch:
    """A phase search's attacker draws: misses(phases, epsilon) counts accepts(score(plan,
    draws), epsilon) over the run's trials, plan the held run's with the profile of phases,
    holding from their single-precision decode (_cir_vectors) c_n = conj(h_n) g_n, the noise
    and an approximate observed gain B per trial. A candidate that changes f_k = exp(j psi_k)
    to f'_k adds c_k (f'_k - f_k) to B; after `limit` updates B restarts from sigma_n noise.
    A cone test on B decides each trial that the exact statistic must reject or accept; the
    rest are re-decoded exactly (_decode of their indices) and scored, a default chunk at a
    time, so each count is the engine's.

    The bound. s folds arg(O) - phi, phi = arg(gt), O = fl(E + w) of the exact decode, E its
    einsum cascade, w = fl(sigma_n noise). Take u = _ROUNDOFF, T = sum_n c_n f_n + w exactly
    and P = sum_n |h_n||g_n| + |w| of the exact decode, T' and P' those of the single-precision
    one, |f| <= 1 + 4u (libm cos and sin), and 4u bounding a complex product's error relative
    to |a||b| (with or without FMA):
    - |O - T| <= (1.5 N + 10) u P: two products per term, a sum in any order (sqrt(2)
      gamma_{N-1} of sum |term|), and the add of w;
    - |T - T'| <= D and P, P' <= S: _observed_gap's (Do, O) at size 0;
    - B starts at w'; an update's difference (u |f' - f|, |f' - f| <= 2 + 8u), product
      (18.1 u |h'_k||g'_k|) and add (u |B + p| <= u (P' + drift)) drift it by at most 20 u P'
      from T', so delta = |O - B| <= (1.5 N + 10 + 20 U) u S + D after U updates.
    The cones. z = B exp(-j phi), folded into Im z >= 0. For 0 < gamma < pi, t(z) = Im z
    cos(gamma) - Re z sin(gamma) is r sin(theta - gamma) at z = r exp(j theta), theta in
    [0, pi]: positive outside the cone {|arg| <= gamma}, negative strictly inside, and in the
    unfolded z 1-Lipschitz (the max or min of two linear forms of unit gradient). Computing z
    (cos, sin and the product: 5.5 u |B|) and t = Im(z exp(-j gamma)) (4.5 u |B|) adds 11 u S
    at most, so margin = (2 N + 32 + 20 limit) u S + (1 + 2^-30) D bounds delta plus the
    test's error ((0.5 N + 11) u S and 2^-30 D cover the factors (1 + k u) that S, D drop).
    Where t > margin at gamma = epsilon + 2^-40, O exp(-j phi) is outside that cone and
    s > epsilon; where -t > margin at gamma = epsilon - 2^-40, inside it and s < epsilon:
    2^-40 exceeds the statistic's rounding (16 u pi), the ulps between math.atan2 and
    np.angle, and gamma's rounding. A side with gamma outside (0, pi) decides nothing; above
    pi all accept: s <= pi's double (Sterbenz).
    """

    @staticmethod
    def nbytes(n_trials: int, n: int) -> int:
        """Bytes held for n_trials draws on n elements: 16 per element and trial (c); per trial
        16 each of noise, B, z and z turned, 8 each of margin and index, and 2 of flags."""
        return n_trials * (16 * n + 82)

    def __init__(self, plan: TrialPlan):
        n, n_trials = plan.scenario.n_elements, plan.n_trials
        self.plan, self.sigma_n = plan, plan.scenario.noise_sigma
        self.batch, self.limit = _default_chunk(plan), n + 4096
        self.c = np.empty((n, n_trials), complex)  # element-major: c[k] is contiguous
        self.noise, self.cascade, self.turned, self.tilted = np.empty((4, n_trials), complex)
        self.margin, self.flags = np.empty(n_trials), np.empty((2, n_trials), bool)
        self.factors, self.updates = np.zeros(n, complex), math.inf  # B not yet summed

    def write(self, lo: int, draws: Draws) -> None:
        """Hold a chunk's single-precision draws as trials [lo, lo + m), and their enrollment."""
        rows, n = slice(lo, lo + draws.noise.size), len(self.c)
        self.noise[rows], c, self.enrolled = draws.noise, self.c[:, rows], (draws.h0, draws.g0)
        np.multiply(np.conjugate(draws.h.T, out=c), draws.g.T, out=c)
        gap, size = _observed_gap(self.plan, draws.power, 0.0)  # D, S: no cascade is pinned
        self.margin[rows] = (2 * n + 32 + 20 * self.limit) * _ROUNDOFF * size
        self.margin[rows] += (1.0 + 2.0**-30) * gap

    def misses(self, phases: np.ndarray, epsilon: float) -> int:
        """Accepted trials of the held run under the profile of phases, in [0, 2 pi) as
        PerElement stores them."""
        factors = np.exp(1j * phases)  # as _cascade computes them
        changed = np.flatnonzero(factors != self.factors).tolist()
        if self.updates + len(changed) > self.limit:  # restart B from the noise
            np.multiply(self.noise, self.sigma_n, out=self.cascade)
            self.factors[:], self.updates, changed = 0.0, 0, range(factors.size)
        for k in changed:
            np.multiply(self.c[k], factors[k] - self.factors[k], out=self.turned)
            np.add(self.cascade, self.turned, out=self.cascade)
        self.factors, self.updates = factors, self.updates + len(changed)
        if epsilon > math.pi:
            return self.plan.n_trials
        gt, z, flags = _fingerprint(self.enrolled, phases), self.turned, self.flags
        phi = math.atan2(gt.imag, gt.real)
        np.multiply(self.cascade, complex(math.cos(phi), -math.sin(phi)), out=z)
        np.absolute(z.imag, out=z.imag)
        flags[:] = False  # rejected, accepted
        for side, gamma, sign in (0, epsilon + 2.0**-40, 1.0), (1, epsilon - 2.0**-40, -1.0):
            if 0.0 < gamma < math.pi:  # flag sign t(z) > margin; a NaN never is
                turn = complex(sign * math.cos(gamma), -sign * math.sin(gamma))
                np.greater(np.multiply(z, turn, out=self.tilted).imag, self.margin,
                           out=flags[side])
        count = int(np.count_nonzero(flags[1]))
        undecided = np.flatnonzero(~np.logical_or(*flags, out=flags[0]))
        if undecided.size:
            plan = replace(self.plan, profile=PerElement(phases))
        for lo in range(0, undecided.size, self.batch):  # a batch's draws freed before the next
            trials = undecided[lo:lo + self.batch]
            ts = score(plan, _decode(plan, trials, None, self.enrolled))  # Alice re-fades
            count += int(np.count_nonzero(accepts(ts, epsilon)))
        return count


@dataclass(frozen=True)
class Draws:
    """Decoded draws of a run of trials, for any phase profile.

    noise has unit variance: real for the pathloss feature, CN(0, 1) for the
    CIR features, which also carry the fading h and g (trials x decoded
    elements) and the enrollment's h0 and g0 (trial -1, one row each). Nothing
    here depends on the profile, so one decode serves every candidate of a
    search under common random numbers. A decode for one hypothesis holds the
    rows of that sender's trials only, in trial order. A single-precision decode
    (_cir_vectors) also holds each row's trial, and its power: the summed squared
    Box-Muller radii of h's, g's and the noise's pairs (_observed_gap).
    """

    is_alice: np.ndarray
    noise: np.ndarray
    h: np.ndarray | None = None
    g: np.ndarray | None = None
    h0: np.ndarray | None = None
    g0: np.ndarray | None = None
    trials: np.ndarray | None = None
    power: np.ndarray | None = None


def _enrollment(plan: TrialPlan) -> tuple:
    """(h0, g0): the fading of trial -1, decoded exactly; (None, None) for pathloss."""
    seed, _, n, g_scale = _stream(plan)
    if n == 0:
        return None, None
    draws = _cir_vectors(seed, n, g_scale, range(-1, 0))
    return draws.h[0], draws.g[0]


def _decode(plan: TrialPlan, trials, hypothesis, enrolled: tuple, exact: bool = True) -> Draws:
    """decode() of trials with the enrollment given; exact=False decodes CIR trials as
    _cir_vectors does with it."""
    seed, _, n, g_scale = _stream(plan)
    if n == 0:  # pathloss: stride 4
        _, is_alice, rad, ang = _polar_blocks(seed, 4, trials, hypothesis)
        return Draws(is_alice, (rad * np.cos(ang))[:, 0])  # the cosine half of Box-Muller only
    return _cir_vectors(seed, n, g_scale, trials, hypothesis, enrolled, exact)


def decode(plan: TrialPlan, trials, hypothesis: Hypothesis | None = None) -> Draws:
    """Decode trials (a range, or an array of trial indices, each read from its own counter
    position), and the enrollment for CIR. Each trial's first uniform draws the transmitter:
    Alice below 0.5. Given a hypothesis, only the trials whose transmitter is its sender are
    decoded past that draw."""
    return _decode(plan, trials, hypothesis, _enrollment(plan))


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

    The CIR features compare with the fingerprint gt of the draws' enrollment
    (h0, g0); the pathloss feature's enrolled value is the closed-form pathloss.
    """
    return _score(plan, draws, {})


def _score(plan: TrialPlan, draws: Draws, gains: dict, sender=None) -> np.ndarray:
    """score(), keeping each CIR gain (cascade, gt) in gains by (baseline, phases), and each
    pathloss pair as _pathloss_pair does, so that plans and senders that share them compute
    them once. A sender (a Hypothesis) scores every row as that sender's."""
    if plan.feature is Feature.PATHLOSS:
        pl_a, pl_e = _pathloss_pair(plan, gains)
        pl_true = np.where(draws.is_alice if sender is None else sender is Hypothesis.H0, pl_a,
                           pl_e)
        return statistic(plan.feature, _observed(pl_true, plan.scenario.noise_sigma, draws.noise),
                         pl_a)
    return statistic(plan.feature, *_received(plan, draws, gains, sender))


def _received(plan: TrialPlan, draws: Draws, gains: dict, sender=None) -> tuple:
    """A CIR plan's observed gains, the cascade (gt for a pinned Alice) plus sigma_n times
    unit noise, and the enrolled gt; gains and sender as _score reads them."""
    key = plan.ris, plan.profile.phases.tobytes()
    if key not in gains and not plan.ris:
        gains[key] = draws.h[:, 0], complex(draws.h0[0])  # direct link: one CN(0, 1) gain
    elif key not in gains:
        phases = plan.profile.phases
        gains[key] = _cascade(draws.h, draws.g, phases), _fingerprint((draws.h0, draws.g0), phases)
    cascade, gt = gains[key]
    if not plan.refade_alice:
        cascade = np.where(draws.is_alice if sender is None else sender is Hypothesis.H0, gt,
                           cascade)
    return cascade + plan.scenario.noise_sigma * draws.noise, gt


def _observed_gap(plan: TrialPlan, power: np.ndarray, size: float) -> tuple:
    """(Do, O) per trial: bounds on the distance between the observed gains, cascade + sigma_n
    noise, of the exact and the single-precision decode, and on either's modulus and its
    sum_n |h_n||g_n| + sigma_n |noise|; power is Draws.power, size bounds a pinned cascade (gt).

    With A, B and v^2 the power of h's, g's and the noise's pairs, s = sigma_g_sq,
    u = _ROUNDOFF, t = _TRIG_ERROR + 4u, X = sqrt(A s B) (sqrt(A) on the direct link) and
    Y = sigma_n v: O = X + Y + size and Do = 1.5 t (X + Y) + (2N + 20) u O.

    Box-Muller values of the two decodes differ by at most t r (the trig, each product's
    rounding and each part's scaling), so over elements h's 2-norm is at most sqrt(A / 2) and
    the decodes' h differ by at most t sqrt(A), and likewise g's with s B and the noise's with
    v^2. With q = 1 / sqrt(2) + t, Cauchy-Schwarz over conj(h) f g (f the common factors) and
    rho = 2 (N + 4) u q^2 X for either cascade's rounding (two complex products per term,
    sqrt(2) gamma_N in any order) give O' = q^2 X + rho + size + q Y on the moduli and
    Do' = t (sqrt(2) + t) X + 2 rho + t Y + 2u q Y + 2u O' on the distance (q X and t X for
    q^2 X + rho and t (sqrt(2) + t) X + 2 rho on the direct link, whose cascade is h). O >= O'
    and Do >= Do' term by term for every s, t <= 10^-3 and N <= 10^14 (3.2 PB of uniforms a
    trial): q^2 (1 + 2 (N + 4) u) <= 1 and q <= 1; 2 rho - (2N + 8) u X, which is
    (2N + 8)(2 sqrt(2) + 2t) t u X, is at most the X term's slack (1.5 - sqrt(2) - t) t X
    (> 0.08 t X); and (2N + 8) u X + 2u q Y + 2u O' <= (2N + 20) u O.
    Factors (1 + k u) of small k are dropped: each caller widens what it derives by 2^-30.
    """
    _, _, n, g_scale = _stream(plan)
    u, t = _ROUNDOFF, _TRIG_ERROR + 4.0 * _ROUNDOFF
    a, b, v = power.T
    x = np.sqrt(a * g_scale * b if plan.ris else a)
    y = plan.scenario.noise_sigma * np.sqrt(v)
    o = x + y + size
    return 1.5 * t * (x + y) + (2 * n + 20) * u * o, o


def _bounded_score(plan: TrialPlan, draws: Draws, gains: dict, sender=None) -> tuple:
    """(a, e) per trial: a = _score of single-precision draws (gains and sender as it reads
    them), and e such that [a - e, a + e], each end rounded, holds the statistic that an exact
    decode gives; gt, the enrolled cascade, is the same in both. With _observed_gap's Do, O:
    - the magnitude |observed - gt|: Do + 8u (O + |gt|) (each decode's difference and hypot);
    - the phase, the circular distance of the arguments: (pi / 2) Do / |observed|, the angle
      that a disc of radius Do about observed subtends (pi if it holds the origin), plus
      16 u pi (each decode's atan2, difference and fold).
    e is widened by 2^-30 of itself, far more than the factors (1 + k u) dropped and the
    rounding of e's own monotone steps can add, and by 2u a, for that of a - e and a + e.
    """
    observed, gt = _received(plan, draws, gains, sender)
    a, u, size = statistic(plan.feature, observed, gt), _ROUNDOFF, abs(gt)
    do, o = _observed_gap(plan, draws.power, size)
    if plan.feature is Feature.CIR_MAGNITUDE:
        e = do + 8.0 * u * (o + size)
    else:
        modulus = np.abs(observed)
        with np.errstate(divide="ignore", invalid="ignore"):  # where the disc holds 0: pi
            e = np.where(do < modulus, (0.5 * math.pi) * do / modulus, math.pi)
        e += 16.0 * u * math.pi
    return a, e * (1.0 + 2.0**-30) + 2.0 * u * a


def _default_chunk(plan: TrialPlan) -> int:
    """Trials per engine chunk: 2^19 uniforms (4 MiB, near the cache) over a trial's 4N + 4,
    at least one. Fewer make per-chunk overhead dominate and split 10^5 pathloss trials."""
    return max(1, (1 << 19) // (4 * _stream(plan)[2] + 4))


def _map_trials(reduce, plan: TrialPlan, workers: int, hypothesis=None, exact: bool = True) -> list:
    """reduce(lo, decode(plan, range(lo, hi), hypothesis)) for each default chunk [lo, hi) of
    the plan's trials, with the enrollment decoded once for them all; exact=False decodes
    each chunk in single precision (_cir_vectors).

    The one place the trial range is split: serially, or on a thread pool of
    `workers` threads, at most one per chunk and one per CPU, so a one-chunk
    call starts no pool. A chunk that raises cancels the chunks not yet
    started. Chunk results are returned in trial order.
    """
    chunk, n = _default_chunk(plan), plan.n_trials
    starts, enrolled = range(0, n, chunk), _enrollment(plan)

    def run(lo):
        trials = range(lo, min(lo + chunk, n))
        return reduce(lo, _decode(plan, trials, hypothesis, enrolled, exact))

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

    Each of score's rounded steps of d = pl_true + sigma_n * n - pl_a (a multiply by
    sigma_n >= 0, an add, a subtract) is monotone in n, and its statistic |d| is below eps
    exactly when -eps < d < eps: the accepted trials run from the first with d > -eps to the
    first with d >= eps (none if eps is 0). Each end is searched for all points at once,
    starting at the index of its real-arithmetic cut (pl_a - pl_true -+ eps) / sigma_n: a
    bracket doubles from there until the test changes in it, then is bisected. Every probe
    takes score's IEEE steps, so the counts are score's exactly; a cut that rounding moves
    far (sigma_n * n near pl_a's ulp) costs probes, not bits.
    """
    last = max(noise.size - 1, 0)

    def first(cut, key):  # per point, the first index whose d has key, or noise.size
        with np.errstate(all="ignore"):  # sigma_n = 0: an infinite or NaN cut, sorted last
            at = np.minimum(np.searchsorted(noise, cut / sigma_n), last)
        lo, hi, step = np.zeros_like(at), np.full_like(at, noise.size), 0
        while np.any(lo < hi):  # the first index with key is in [lo, hi]
            target = np.where(hi <= at, at - step, at + step)  # at, then doubling away from it
            mid = np.where((lo <= target) & (target < hi), target, (lo + hi) // 2)  # or bisect
            true = key(_observed(pl_true, sigma_n, noise[np.minimum(mid, last)]) - pl_a)
            lo, hi = np.where((lo < hi) & ~true, mid + 1, lo), np.where((lo < hi) & true, mid, hi)
            step = max(2 * step, 1)
        return lo

    start = first(pl_a - pl_true - eps, lambda d: d > -eps)
    return np.maximum(first(pl_a - pl_true + eps, lambda d: d >= eps) - start, 0)


def attacker_draws(scenario: Scenario, n_trials: int, seed: int) -> _HeldSearch:
    """The attacker (H1) trials [0, n_trials) of seed's phase-feature run on scenario's
    reflected link with a re-fading Alice, the one plan that the held draws serve, held for a
    phase search: the enrollment decoded exactly once, then each default chunk decoded with
    single-precision trig and written once decoded. misses(phases, epsilon) counts, bit for
    bit, the statistics that empirical_distribution(plan, H1) draws under the profile of
    phases: a cone test on an approximate gain decides most trials, and _decode of the rest's
    trial indices re-decodes them exactly (_HeldSearch). A run whose held draws
    (_HeldSearch.nbytes) exceed _HELD_LIMIT bytes is refused before anything is held or decoded."""
    n = scenario.n_elements
    size = _HeldSearch.nbytes(n_trials, n)
    if size > _HELD_LIMIT:
        raise ValueError(
            f"{n_trials} evaluation trials on {n} elements need {size} bytes of the products "
            f"conj(h) g, noise and the cone test's arrays (limit {_HELD_LIMIT}); "
            "lower the evaluation trials")
    plan = TrialPlan(n_trials, seed, Feature.CIR_PHASE, scenario,
                     PerElement(np.zeros(n)))  # profile: a placeholder
    held = _HeldSearch(plan)
    _map_trials(held.write, plan, 1, exact=False)
    return held


def _sorted_pairs(draws: Draws, values) -> list:
    """Per value array, its (Alice's, Eve's) entries sorted, as the counts read them."""
    masks = draws.is_alice, ~draws.is_alice
    # compress, not a boolean index, which takes 4x as long on a random mask
    return [[np.sort(np.compress(mask, v)) for mask in masks] for v in values]


def _auto_grid(samples: np.ndarray) -> np.ndarray:
    """The auto grid that a plan's pilot samples pick (see ROC_PILOT_TRIALS); its ends
    increase, as 1.05 x the greatest sample exceeds 0.5 x the least positive one."""
    positive = samples[samples > 0.0]
    lo = ROC_LO_SCALE * float(positive.min()) if positive.size else 1e-12
    hi = ROC_HI_SCALE * float(samples.max()) if positive.size else 1.0
    return np.geomspace(lo, hi, ROC_AUTO_POINTS)


def _count_pathloss(group: list, grids, pilot: int, hypothesis, workers: int) -> tuple:
    """(grids, counts) of a pathloss stream's plans, as sweep_trials reads them. The auto grid
    is picked first: the pilot's trials are decoded once, and each plan's _score of them as each
    sender's picks its grid. Then each chunk sorts its shared unit noise once and counts the
    grid at each plan's point (Alice's pathloss, Eve's pathloss, noise sigma) by
    _accepted_run's searches from the cuts, holding nothing past its own counts."""
    pathloss = {}  # each distinct pathloss pair of the stream, computed once
    if pilot:
        share = _decode(group[0], range(pilot), None, (None, None))
        grids = np.array([_auto_grid(np.concatenate([_score(p, share, pathloss, h)
                                                     for h in Hypothesis])) for p in group])
    points = np.array([(*_pathloss_pair(p, pathloss), p.scenario.noise_sigma) for p in group])
    pl_a, pl_e, sigma_n = np.repeat(points, grids.shape[1], axis=0).T
    eps = grids.ravel()

    def counts(lo, draws):  # rows (n_alice, n_eve), then each threshold's accepts
        ((alice, eve),) = _sorted_pairs(draws, [draws.noise])
        return np.vstack([(alice.size, eve.size), np.stack(
            [_accepted_run(alice, pl_a, pl_a, sigma_n, eps),
             _accepted_run(eve, pl_e, pl_a, sigma_n, eps)], axis=1)])

    return grids, sum(_map_trials(counts, group[0], workers, hypothesis))


def _settled_counts(group: list, draws: Draws, bounded: list, grids) -> np.ndarray:
    """The counts, as sweep_trials reads them, of a CIR chunk's trials from their bounded
    statistics (a, e) per plan: a trial whose interval [a - e, a + e] holds a threshold of
    some plan's grid is undecided, and all plans score it exactly (one _decode of the
    chunk's undecided trials' indices, draws.trials, for them all); elsewhere a is on the
    exact statistic's side of every threshold, so the counts are the exact decode's."""
    undecided = np.zeros(draws.is_alice.size, bool)
    for (a, e), grid in zip(bounded, grids):
        undecided |= np.searchsorted(grid, a - e) != np.searchsorted(grid, a + e, side="right")
    values = [a for a, _ in bounded]
    rows = np.flatnonzero(undecided)
    if rows.size:
        exact, gains = _decode(group[0], draws.trials[rows], None, (draws.h0, draws.g0)), {}
        for v, plan in zip(values, group):
            v[rows] = _score(plan, exact, gains)
    pairs = _sorted_pairs(draws, values)
    return np.vstack([[part.size for part in pairs[0]], *(
        np.stack([count_accepted(alice, eps), count_accepted(eve, eps)], axis=1)
        for eps, (alice, eve) in zip(grids, pairs))])


def _extremes_possible(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Which pilot samples, of bounded statistics (a, e), may be the least positive or the
    greatest exact statistic: any other is above some sample that is surely positive, or
    below some sample."""
    lo, hi = a - e, a + e
    surely_positive = lo > 0.0
    least = hi[surely_positive].min() if surely_positive.any() else math.inf
    return (lo <= least) | (hi >= lo.max())


def _count_cir(group: list, grids, pilot: int, hypothesis, workers: int) -> tuple:
    """(grids, counts) of a CIR stream's plans, from single-precision chunks (see the module
    docstring): each chunk scores each plan once, with its bound, and counts a given grid
    (_settled_counts), or holds its bounded statistics (16 B per trial and plan, 9 B per trial)
    until the pilot picks the grid, then is counted so and freed, in trial order. The pilot's
    possible extremes are scored exactly, as each sender's only where the plan pins Alice."""

    def chunk(lo, draws):
        gains = {}  # shared by every score of the chunk (_received)
        bounded = [_bounded_score(p, draws, gains) for p in group]
        if not pilot:
            return _settled_counts(group, draws, bounded, grids)
        k = max(pilot - lo, 0)  # the pilot's share: per plan, (a, e) x sender x trial
        samples = [np.stack([own] if p.refade_alice else  # a re-fading plan: its own (a, e)
                            [_bounded_score(p, draws, gains, h) for h in Hypothesis], axis=1)
                   [..., :k] for p, own in zip(group, bounded)] if k else []
        return replace(draws, h=None, g=None, noise=None, power=None), bounded, samples

    parts = _map_trials(chunk, group[0], workers, hypothesis, exact=False)
    if not pilot:
        return grids, sum(parts)
    candidates = np.zeros(pilot, bool)  # of the pilot's trials, [0, pilot)
    for per_chunk in zip(*(s for _, _, s in parts if s)):  # a plan's samples, chunk by chunk
        a, e = np.concatenate(per_chunk, axis=-1)  # each sender x trial
        candidates |= _extremes_possible(a, e).any(axis=0)
    enrolled = parts[0][0].h0, parts[0][0].g0
    exact, gains = _decode(group[0], np.flatnonzero(candidates), None, enrolled), {}
    # every trial that may give a plan's extreme, as each sender's if Alice is pinned
    grids = np.array([_auto_grid(np.concatenate([_score(p, exact, gains, h) for h in (
        [None] if p.refade_alice else Hypothesis)])) for p in group])
    return grids, sum(_settled_counts(group, *parts.pop(0)[:2], grids) for _ in range(len(parts)))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def sweep_trials(plans, grids=None, *, hypothesis: Hypothesis | None = None,
                 workers: int = 1) -> list[Counts]:
    """The Counts of each plan at each threshold of its grid, from one decode per random stream.

    grids is one rectangular table of thresholds with a row per plan, each row strictly
    increasing (auth.check_grid with rows); None gives every plan the auto grid (see
    ROC_PILOT_TRIALS), picked from the same decode. Plans that share a random stream (see
    _stream) decode the same draws, so they may differ in all that decode() does not read: link
    quality, profile, statistic, refade_alice, and for pathloss the baseline. Streams go in
    first-seen order, each on one thread pool when workers > 1 (_map_trials). The counts are
    integer sums over chunks, so they do not depend on the partition, the worker count or the
    other plans of the call. A hypothesis decodes past the transmitter draw only its sender's
    trials (H0: Alice's); the auto grid's pilot reads both senders, so it takes none. A chunk
    sorts once per distinct statistic and counts a grid: a given one, or the auto grid. A
    pathloss stream picks it from its pilot's decode before any chunk (_count_pathloss); a CIR
    chunk holds its values until the pilot picks it (_count_cir). The pilot only picks the
    grid, scoring a pathloss plan, or one that pins Alice, as each sender's.
    """
    if not plans or grids is not None and len(grids) != len(plans):
        raise ValueError(f"need one grid per plan, got {len(plans)} plans and "
                         f"{'no' if grids is None else len(grids)} grids")
    if grids is None and hypothesis is not None:
        raise ValueError("the auto grid's pilot reads both senders: give grids with a hypothesis")
    grids = None if grids is None else check_grid(grids, rows=True)
    results = [None] * len(plans)
    streams: dict[tuple, list[int]] = {}  # dicts keep first-seen order
    for k, plan in enumerate(plans):
        streams.setdefault(_stream(plan), []).append(k)
    for ks in streams.values():
        group = [plans[k] for k in ks]
        pilot = min(group[0].n_trials, ROC_PILOT_TRIALS) if grids is None else 0
        # a stream's plans are all CIR or all pathloss
        count = _count_pathloss if group[0].feature is Feature.PATHLOSS else _count_cir
        own, total = count(group, None if grids is None else grids[ks], pilot, hypothesis, workers)
        # rows (n_alice, n_eve), then (Alice's, Eve's) accepts at each plan's thresholds
        n_alice, n_eve = total[0].tolist()
        accepted = total[1:].reshape(len(ks), -1, 2).tolist()
        for k, grid, plan_accepted in zip(ks, own.tolist(), accepted):
            results[k] = Counts(tuple(grid), n_alice, n_eve, tuple(map(tuple, plan_accepted)))
    return results


def empirical_distribution(plan: TrialPlan, hypothesis: Hypothesis) -> np.ndarray:
    """Sorted draws of the test statistic of plan's trials under one fixed hypothesis.

    A CDF lookup on the result at the threshold gives the missed detection
    (H1) or one minus the false alarm (H0).
    """
    parts = _map_trials(lambda lo, draws: _score(plan, draws, {}, hypothesis), plan, 1)
    return np.sort(np.concatenate(parts))
