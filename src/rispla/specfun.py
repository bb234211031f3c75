"""Special functions and distribution primitives for the closed-form error expressions.

Scalar implementations, except the folded-normal CDF, which also maps an
array of deltas (a whole gradient grid); the Monte-Carlo engine does its own
vectorized math and only meets these functions when cross-checking against
closed forms. The Rayleigh tail is one line in `auth.pfa_cir_magnitude`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FoldedNormalParams",
    "check_sigma",
    "q_func",
    "q_inv",
    "folded_normal_cdf",
    "folded_normal_moments",
]

_SQRT2 = math.sqrt(2.0)


def check_sigma(sigma: float) -> float:
    """sigma, if it is a noise scale: positive and finite."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return sigma


@dataclass(frozen=True)
class FoldedNormalParams:
    """Parameters of |X| for X ~ N(delta, sigma^2); delta may be an array."""

    delta: float | np.ndarray
    sigma: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.delta)):
            raise ValueError("folded normal delta must be finite")
        check_sigma(self.sigma)


def q_func(x: float) -> float:
    """Standard normal tail probability P(N(0,1) > x)."""
    if not math.isfinite(x):
        raise ValueError(f"q_func requires finite input, got {x}")
    return 0.5 * math.erfc(x / _SQRT2)


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def q_inv(p: float) -> float:
    """Inverse of q_func on (0, 1).

    Safeguarded Newton iteration: full Newton steps on q_func(x) - p with
    a bisection fallback whenever a step leaves the current bracket.
    The root is bracketed in [-40, 40], which covers tail probabilities
    far beyond double-precision resolution.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"q_inv requires p in (0, 1), got {p}")
    lo, hi = -40.0, 40.0  # q_func(lo) ~ 1, q_func(hi) ~ 0
    x = 0.0
    for _ in range(200):
        err = q_func(x) - p
        if err == 0.0:
            return x
        if err > 0.0:
            lo = max(lo, x)  # root is to the right (q decreasing)
        else:
            hi = min(hi, x)
        step = err / _normal_pdf(x)  # -err / dQ/dx
        x_new = x + step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x


def folded_normal_cdf(x: float, params: FoldedNormalParams):
    """CDF of the folded normal at x, 0 below the fold point x = 0; elementwise over an
    array delta, with libm's erf per element."""
    delta = np.asarray(params.delta, dtype=float)
    with np.errstate(over="ignore"):  # a huge x gives +-inf, whose erf is +-1 exactly
        a = (x + delta) / (params.sigma * _SQRT2)
        b = (x - delta) / (params.sigma * _SQRT2)
    erfs = [math.erf(p) + math.erf(q) for p, q in zip(a.ravel().tolist(), b.ravel().tolist())]
    val = np.where(x < 0.0, 0.0, np.clip(0.5 * np.reshape(erfs, delta.shape), 0.0, 1.0))
    return float(val) if val.ndim == 0 else val


def folded_normal_moments(params: FoldedNormalParams) -> tuple[float, float]:
    """Mean and variance of |N(delta, sigma^2)|."""
    d, s = params.delta, params.sigma
    phi_neg = 0.5 * math.erfc((d / s) / _SQRT2)  # standard normal CDF at -d/s
    mean = math.exp(-d * d / (2.0 * s * s)) * s * math.sqrt(2.0 / math.pi) + d * (
        1.0 - 2.0 * phi_neg
    )
    variance = d * d + s * s - mean * mean
    return mean, max(0.0, variance)
