"""Test statistics, the decision rule, and closed-form error probabilities.

`statistic` is the one implementation of the three features' test
statistics; it works elementwise on arrays, so the Monte-Carlo engine calls
it on whole chunks of trials. `accepts` is the decision rule (ties reject);
`count_accepted` owns its count; `check_threshold`, `check_grid` and
`check_target_pfa` own the domains of a threshold, a threshold grid and a
false-alarm target for every closed form, engine entry, optimizer and CLI
option, as `specfun.check_sigma` owns the noise scale's. Every probability
here is a pure function of linear-unit quantities; dB conversion belongs to
the CLI layer. The magnitude missed detection has no closed form; `mc`
estimates it.

The closed forms and thresholds work elementwise: a threshold or noise scale
may be an array (one per link quality of a sweep), and each element takes the
IEEE operations and the libm call that the number alone takes, so it gets the
same bits. A number in gives a number out.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .specfun import check_sigma, extremes, folded_normal_cdf, libm, q_func, q_inv

__all__ = [
    "Feature",
    "statistic",
    "accepts",
    "count_accepted",
    "check_threshold",
    "check_grid",
    "check_target_pfa",
    "pfa_pathloss",
    "threshold_for_pfa",
    "pmd_pathloss",
    "pmd_cir_phase",
    "pfa_cir_magnitude",
    "threshold_for_pfa_magnitude",
    "rayleigh_sigma",
]

TWO_PI = 2.0 * math.pi

# q_func is 0.0 at every argument above about 38.5 (libm's erfc underflows), so a ratio clamped
# to this keeps every finite ratio's bits and gives 2 Q(inf) = 0 where epsilon / sigma overflows
_Q_VANISHED = 40.0


class Feature(Enum):
    PATHLOSS = "pathloss"
    CIR_MAGNITUDE = "cir-magnitude"
    CIR_PHASE = "cir-phase"


def statistic(feature: Feature, observed, enrolled):
    """Distance of each observation from the enrolled fingerprint.

    |observed - enrolled| for the pathloss and magnitude features; for the
    phase feature, the difference of principal arguments folded into
    [0, pi] so the statistic is continuous across the branch cut.
    """
    if feature is Feature.CIR_PHASE:
        diff = np.abs(np.angle(observed) - np.angle(enrolled))
        return np.where(diff > math.pi, TWO_PI - diff, diff)
    return np.abs(observed - enrolled)


def accepts(ts, epsilon):
    """Threshold test: True claims the legitimate transmitter; ties reject."""
    return ts < epsilon


def count_accepted(sorted_ts, epsilons):
    """#(ts < epsilon) for each threshold, from ascending statistics: accepts, counted."""
    return np.searchsorted(sorted_ts, epsilons, side="left")


def check_threshold(epsilon):
    """epsilon, if it is a threshold, or an array of them: finite and nonnegative."""
    for e in extremes(epsilon):
        if not (math.isfinite(e) and e >= 0.0):
            raise ValueError(f"epsilon must be finite and nonnegative, got {e}")
    return epsilon


def check_grid(thresholds, rows: bool = False) -> np.ndarray:
    """thresholds as a float array, if a nonempty, strictly increasing 1-D sequence of them;
    with rows, if they are a rectangular table whose every row is one (checked in one pass).
    Every point of such a sequence lies between its ends, so checking them checks it all."""
    try:
        grid = np.asarray(thresholds, dtype=float)
    except ValueError:  # a ragged table
        grid = np.empty(0)
    if (grid.ndim != 1 + rows or grid.shape[-1] == 0
            or not (grid[..., 1:] > grid[..., :-1]).all()):  # NaN fails
        raise ValueError("each grid must be a nonempty, strictly increasing 1-D sequence, "
                         "and a table's grids all of one length")
    check_threshold(grid[..., [0, -1]])  # the least first and the greatest last end
    return grid


def check_target_pfa(target_pfa: float) -> float:
    """target_pfa, if it is a false-alarm target: in (0, 1]."""
    if not (0.0 < target_pfa <= 1.0):
        raise ValueError(f"target_pfa must be in (0, 1], got {target_pfa}")
    return target_pfa


def pfa_pathloss(epsilon, sigma):
    """False-alarm probability 2 Q(epsilon / sigma) of the pathloss test: 0.0 where the ratio
    overflows, as 2 Q(inf) is."""
    with np.errstate(over="ignore"):  # as a float division
        ratio = check_threshold(epsilon) / check_sigma(sigma)
    return 2.0 * q_func(np.minimum(ratio, _Q_VANISHED))


def threshold_for_pfa(target_pfa: float, sigma):
    """Smallest threshold meeting a prescribed false-alarm probability."""
    check_sigma(sigma)
    return sigma * (0.0 if check_target_pfa(target_pfa) == 1.0 else q_inv(target_pfa / 2.0))


def pmd_pathloss(epsilon, sigma, pl_a, pl_e):
    """Missed-detection probability: folded-normal CDF at the threshold.

    pl_a and pl_e may be arrays of pathloss pairs (one per gradient of a grid).
    """
    return folded_normal_cdf(check_threshold(epsilon), pl_e - pl_a, sigma)


def pmd_cir_phase(epsilon):
    """Missed detection of the phase test, min(epsilon, pi) / pi: Eve's gain (cascade or
    direct) is redrawn each trial and circularly symmetric, as is the noise, so her statistic
    is uniform on [0, pi] whatever the profile, the baseline or Alice's fading."""
    if isinstance(check_threshold(epsilon), np.ndarray):
        return np.minimum(epsilon, math.pi) / math.pi
    return min(epsilon, math.pi) / math.pi


def pfa_cir_magnitude(epsilon, sigma):
    """False alarm of the magnitude test: the Rayleigh(sigma) tail exp(-eps^2 / 2 sigma^2)."""
    sigma, epsilon = check_sigma(sigma), check_threshold(epsilon)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as float arithmetic
        return libm(math.exp, -epsilon * epsilon / (2.0 * sigma * sigma))


def threshold_for_pfa_magnitude(target_pfa: float, noise_sigma):
    """Threshold whose pinned-magnitude false alarm is target_pfa: the Rayleigh tail
    exp(-eps^2 / 2 sigma_r^2) inverted, with sigma_r = rayleigh_sigma(noise_sigma)."""
    check_sigma(noise_sigma)
    if check_target_pfa(target_pfa) == 1.0:
        return rayleigh_sigma(noise_sigma) * 0.0  # not sigma_r * sqrt(-0.0), which is -0.0
    return rayleigh_sigma(noise_sigma) * math.sqrt(-2.0 * math.log(target_pfa))


def rayleigh_sigma(noise_sigma):
    """Rayleigh scale of |n| for n ~ CN(0, noise_sigma^2): each part has variance
    noise_sigma^2 / 2, so the modulus is Rayleigh(noise_sigma / sqrt(2))."""
    return noise_sigma / math.sqrt(2.0)
