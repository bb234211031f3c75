"""Test statistics, the decision rule, and closed-form error probabilities.

`statistic` is the one implementation of the three features' test
statistics; it works elementwise on arrays, so the Monte-Carlo engine calls
it on whole chunks of trials. `accepts` is the decision rule (ties reject);
`count_accepted` owns its count and `check_threshold` its domain, for every
closed form, engine entry and optimizer. Every probability here is a pure
function of linear-unit quantities; dB conversion belongs to the CLI layer.
The phase-feature and magnitude-feature missed detections have no closed form
and live in the Monte-Carlo engine.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .specfun import FoldedNormalParams, folded_normal_cdf, q_func, q_inv

__all__ = [
    "Feature",
    "statistic",
    "accepts",
    "count_accepted",
    "check_threshold",
    "pfa_pathloss",
    "threshold_for_pfa",
    "pmd_pathloss",
    "pfa_cir_magnitude",
    "threshold_for_pfa_magnitude",
    "rayleigh_sigma",
]

TWO_PI = 2.0 * math.pi


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


def check_threshold(epsilon: float) -> float:
    """epsilon, if it is a threshold: finite and nonnegative."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    return epsilon


def pfa_pathloss(epsilon: float, sigma: float) -> float:
    """False-alarm probability 2 Q(epsilon / sigma) of the pathloss test."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 2.0 * q_func(check_threshold(epsilon) / sigma)


def threshold_for_pfa(target_pfa: float, sigma: float) -> float:
    """Smallest threshold meeting a prescribed false-alarm probability."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not (0.0 < target_pfa <= 1.0):
        raise ValueError(f"target_pfa must be in (0, 1], got {target_pfa}")
    if target_pfa == 1.0:
        return 0.0
    return sigma * q_inv(target_pfa / 2.0)


def pmd_pathloss(epsilon: float, sigma: float, pl_a, pl_e):
    """Missed-detection probability: folded-normal CDF at the threshold.

    pl_a and pl_e may be arrays of pathloss pairs (one per gradient of a grid).
    """
    return folded_normal_cdf(check_threshold(epsilon), FoldedNormalParams(pl_e - pl_a, sigma))


def pfa_cir_magnitude(epsilon: float, sigma: float) -> float:
    """False alarm of the magnitude test: the Rayleigh(sigma) tail exp(-eps^2 / 2 sigma^2)."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    epsilon = check_threshold(epsilon)
    return math.exp(-epsilon * epsilon / (2.0 * sigma * sigma))


def threshold_for_pfa_magnitude(target_pfa: float, noise_sigma: float) -> float:
    """Threshold whose pinned-magnitude false alarm is target_pfa: the Rayleigh tail
    exp(-eps^2 / 2 sigma_r^2) inverted, with sigma_r = rayleigh_sigma(noise_sigma)."""
    if not (0.0 < target_pfa <= 1.0):
        raise ValueError(f"target_pfa must be in (0, 1], got {target_pfa}")
    if target_pfa == 1.0:
        return 0.0  # not sigma_r * sqrt(-0.0), which is -0.0
    return rayleigh_sigma(noise_sigma) * math.sqrt(-2.0 * math.log(target_pfa))


def rayleigh_sigma(noise_sigma: float) -> float:
    """Rayleigh scale of |n| for n ~ CN(0, noise_sigma^2): each part has variance
    noise_sigma^2 / 2, so the modulus is Rayleigh(noise_sigma / sqrt(2))."""
    return noise_sigma / math.sqrt(2.0)
