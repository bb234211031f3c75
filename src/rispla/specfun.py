"""Special functions and distribution primitives for the closed-form error expressions.

`q_func`, `check_sigma` and the folded-normal CDF work elementwise on arrays
(a sweep's link qualities, a gradient grid) as well as on numbers, with
libm's `erf`/`erfc` per element (`libm`); `q_inv` and the folded-normal
moments are scalar. The folded normal |N(delta, sigma^2)| takes plain
numbers like every other closed form, `folded_normal_cdf(x, delta, sigma)`
and `folded_normal_moments(delta, sigma)`, and each refuses a non-finite
delta and a sigma that `check_sigma` refuses. The Monte-Carlo engine does
its own vectorized math and only meets these functions when cross-checking
against closed forms. The Rayleigh tail is one line in
`auth.pfa_cir_magnitude`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_sigma",
    "q_func",
    "q_inv",
    "folded_normal_cdf",
    "folded_normal_moments",
]

_SQRT2 = math.sqrt(2.0)


def extremes(values) -> tuple:
    """(values,) for a number, (least, greatest) for an array: both are NaN when an element
    is, so a domain that is an interval holds every element when it holds these."""
    if isinstance(values, np.ndarray):
        return np.min(values).item(), np.max(values).item()
    return (values,)


def libm(fn, x):
    """fn, a libm function of one float, at x or at each element of an array x: numpy's SIMD
    exp, erf, erfc, arcsin and sin may differ from libm's in the last bit; outputs hold libm's."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def check_sigma(sigma):
    """sigma, if it is a noise scale, or an array of them: positive and finite."""
    for s in extremes(sigma):
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {s}")
    return sigma


def _check_folded(delta, sigma) -> None:
    """Refuse |N(delta, sigma^2)| with a non-finite delta or a sigma that is no noise scale."""
    if not np.all(np.isfinite(delta)):
        raise ValueError("folded normal delta must be finite")
    check_sigma(sigma)


def q_func(x):
    """Standard normal tail probability P(N(0,1) > x), elementwise on an array."""
    for end in extremes(x):
        if not math.isfinite(end):
            raise ValueError(f"q_func requires finite input, got {end}")
    return 0.5 * libm(math.erfc, x / _SQRT2)


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def q_inv(p: float) -> float:
    """Inverse of q_func on (0, 1).

    Safeguarded Newton iteration: full Newton steps on q_func(x) - p with
    a bisection fallback whenever a step leaves the current bracket.
    The root is bracketed in [-40, 40], which covers tail probabilities
    far beyond double-precision resolution. Where q_func(x) is far below 1, a step
    on q_func(x) - p grows x by about 1 / x, so 200 steps reach only x ~ 20
    (q_func ~ 1e-88); a target they do not reach (p below about 1e-65) is then
    solved on log q_func(x) - log p, whose steps keep their full size there.
    Accuracy: for p in [1e-300, 0.4], x lies within a relative 1.5e-15 of the exact root (the
    worst seen against 60-digit arithmetic is 1.3e-15: the loop stops once a step is at most
    1e-15 |x|).
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"q_inv requires p in (0, 1), got {p}")
    lo, hi = -40.0, 40.0  # q_func(lo) ~ 1, q_func(hi) ~ 0
    x = 0.0
    for log_scale in (False, True):
        for _ in range(200):
            q = q_func(x)
            if log_scale and q == 0.0:  # past where q_func underflows: the root is below x
                hi, x_new = x, 0.5 * (lo + x)
            else:
                err = math.log(q) - math.log(p) if log_scale else q - p
                if err == 0.0:
                    return x
                if err > 0.0:
                    lo = max(lo, x)  # root is to the right (q decreasing)
                else:
                    hi = min(hi, x)
                pdf = _normal_pdf(x)  # -dQ/dx, and -d log Q/dx = pdf / q
                x_new = x + (err * (q / pdf) if log_scale else err / pdf)
                if not (lo < x_new < hi):
                    x_new = 0.5 * (lo + hi)
            if abs(x_new - x) <= 1e-15 * max(1.0, abs(x_new)):
                return x_new
            x = x_new
    return x


def folded_normal_cdf(x, delta, sigma):
    """CDF of |N(delta, sigma^2)| at x, 0 below the fold point x = 0; elementwise over arrays
    x, delta and sigma, with libm's erf per element."""
    _check_folded(delta, sigma)
    delta = np.asarray(delta, dtype=float)
    with np.errstate(over="ignore"):  # a huge x gives +-inf, whose erf is +-1 exactly
        a = (x + delta) / (sigma * _SQRT2)
        b = (x - delta) / (sigma * _SQRT2)
    val = np.where(x < 0.0, 0.0, np.clip(0.5 * (libm(math.erf, a) + libm(math.erf, b)), 0.0, 1.0))
    return float(val) if val.ndim == 0 else val


def folded_normal_moments(delta: float, sigma: float) -> tuple[float, float]:
    """Mean and variance of |N(delta, sigma^2)|.

    The variance is sigma^2 - (mean - |delta|)(mean + |delta|), with mean - |delta| =
    sigma sqrt(2 / pi) exp(-delta^2 / 2 sigma^2) - 2 |delta| Phi(-|delta| / sigma) formed
    directly: delta^2 + sigma^2 - mean^2 cancels to 0 once |delta| / sigma passes about 10^8.
    Accuracy: for sigma in [1e-3, 1e3] and |delta| / sigma in [0, 1e9], either sign of delta,
    the mean and the variance each lie within a relative 4e-15 of the exact values (the worst
    seen against 60-digit arithmetic is 1.4e-15, the variance's, near |delta| = 0.06 sigma).
    """
    _check_folded(delta, sigma)
    phi_neg = 0.5 * math.erfc((delta / sigma) / _SQRT2)  # standard normal CDF at -delta/sigma
    peak = math.exp(-delta * delta / (2.0 * sigma * sigma)) * sigma * math.sqrt(2.0 / math.pi)
    mean = peak + delta * (1.0 - 2.0 * phi_neg)
    size = abs(delta)
    below = peak - size * math.erfc((size / sigma) / _SQRT2)  # mean - |delta|
    return mean, sigma * sigma - below * (mean + size)
