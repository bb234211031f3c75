"""Physical model: scenario files, reflection geometry and pathloss.

Coordinates are metres, angles radians, gains and powers linear. The panel
reflects transmitter signals toward the receiver; the direct transmitter to
receiver path is assumed blocked whenever the panel is in use. The fading
draws of the CIR features are decoded by the Monte-Carlo engine (`mc`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "GeometryError",
    "EvanescentError",
    "ScenarioFormatError",
    "Scenario",
    "ScalarGradient",
    "PerElement",
    "PhaseProfile",
    "load_scenario",
    "incidence_angle",
    "ris_pathloss_grid",
    "ris_pathloss",
    "fspl",
    "pathloss_pair",
]

SPEED_OF_LIGHT = 299_792_458.0

TWO_PI = 2.0 * math.pi

_SCENARIO_VECTOR_KEYS = ("alice_pos", "eve_pos", "bob_pos", "ris_pos", "ris_normal")
_SCENARIO_SCALAR_KEYS = ("element_a", "element_b", "n_elements", "frequency_hz",
                         "tx_gain", "rx_gain", "tx_power_w", "refractive_index",
                         "lq_db", "sigma_g_sq")
_SCENARIO_OPTIONAL = frozenset({"sigma_g_sq", "refractive_index", "lq_db"})


class GeometryError(ValueError):
    """Degenerate node geometry (coincident points, transmitter not facing the panel)."""


class EvanescentError(ValueError):
    """No propagating reflected ray for the requested phase gradient."""


class ScenarioFormatError(ValueError):
    """Malformed scenario file; message names the offending line."""


def _as_point(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Scenario:
    """Full physical configuration of one authentication setup."""

    alice_pos: np.ndarray
    eve_pos: np.ndarray
    bob_pos: np.ndarray
    ris_pos: np.ndarray
    ris_normal: np.ndarray
    element_a: float
    element_b: float
    n_elements: int
    frequency_hz: float
    tx_gain: float
    rx_gain: float
    tx_power_w: float
    refractive_index: float = 1.0
    lq_db: float = 20.0
    sigma_g_sq: float = 1.0  # panel-to-receiver fading variance, decoupled from noise

    def __post_init__(self):
        for name in _SCENARIO_VECTOR_KEYS:
            object.__setattr__(self, name, _as_point(getattr(self, name), name))
        for name in (*_SCENARIO_VECTOR_KEYS, *_SCENARIO_SCALAR_KEYS):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if abs(np.linalg.norm(self.ris_normal) - 1.0) > 1e-9:
            raise ValueError("ris_normal must have unit norm within 1e-9")
        for name in ("alice_pos", "eve_pos", "bob_pos"):
            if np.array_equal(getattr(self, name), self.ris_pos):
                raise ValueError(f"{name} must be distinct from ris_pos")
        if self.element_a <= 0 or self.element_b <= 0:
            raise ValueError("element dimensions must be positive")
        if int(self.n_elements) != self.n_elements or self.n_elements < 1:
            raise ValueError(f"n_elements must be a positive integer, got {self.n_elements}")
        object.__setattr__(self, "n_elements", int(self.n_elements))
        for name in ("frequency_hz", "tx_gain", "rx_gain", "tx_power_w",
                     "refractive_index", "sigma_g_sq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def noise_variance(self) -> float:
        """Noise power sigma^2 from the transmit-to-noise power ratio (lq_db)."""
        return self.tx_power_w * 10.0 ** (-self.lq_db / 10.0)

    @property
    def noise_sigma(self) -> float:
        return math.sqrt(self.noise_variance)


@dataclass(frozen=True)
class ScalarGradient:
    """Phase-discontinuity gradient d(phase)/dx in rad/m, for the pathloss feature."""

    gradient: float

    def __post_init__(self):
        if not math.isfinite(self.gradient):
            raise ValueError(f"gradient must be finite, got {self.gradient}")


@dataclass(frozen=True)
class PerElement:
    """One phase per panel element, stored in [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.phases, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValueError("phases must be a 1-D vector of finite values")
        object.__setattr__(self, "phases", np.mod(arr, TWO_PI))
        self.phases.flags.writeable = False


PhaseProfile = ScalarGradient | PerElement


def load_scenario(path) -> Scenario:
    """Parse a flat key=value scenario file (positions as comma-separated triples)."""
    text = Path(path).read_text()
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioFormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _SCENARIO_VECTOR_KEYS:
            parts = [p.strip() for p in val.split(",")]
            if len(parts) != 3:
                raise ScenarioFormatError(f"{path}:{lineno}: {key} needs 3 components")
            try:
                values[key] = tuple(float(p) for p in parts)
            except ValueError:
                raise ScenarioFormatError(f"{path}:{lineno}: non-numeric component in {key}") from None
        elif key in _SCENARIO_SCALAR_KEYS:
            try:
                values[key] = int(val) if key == "n_elements" else float(val)
            except ValueError:
                raise ScenarioFormatError(f"{path}:{lineno}: non-numeric value for {key}") from None
        else:
            raise ScenarioFormatError(f"{path}:{lineno}: unknown key {key!r}")
    missing = [k for k in (*_SCENARIO_VECTOR_KEYS, *_SCENARIO_SCALAR_KEYS)
               if k not in values and k not in _SCENARIO_OPTIONAL]
    if missing:
        raise ScenarioFormatError(f"{path}: missing keys: {', '.join(missing)}")
    try:
        return Scenario(**values)
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


def incidence_angle(tx_pos, scenario: Scenario) -> float:
    """Angle in [0, pi/2) between the transmitter ray and the panel normal."""
    v = np.asarray(tx_pos, dtype=float) - scenario.ris_pos
    d = np.linalg.norm(v)
    if d == 0.0:
        raise GeometryError("transmitter coincides with the panel position")
    cos_i = float(np.dot(v, scenario.ris_normal)) / d
    cos_i = min(1.0, max(-1.0, cos_i))
    if cos_i <= 1e-12:
        raise GeometryError("transmitter lies in or behind the panel plane")
    return math.acos(cos_i)


def ris_pathloss_grid(scenario: Scenario, tx_pos, gradients) -> tuple[np.ndarray, np.ndarray]:
    """(pathloss, propagating): the single-element reflection pathloss (linear power gain)
    from tx via the panel to Bob at each phase gradient, and whether it has a reflected ray.

    A gradient propagates unless |sin(theta_i) + lambda*gradient/(2 pi n1)| > 1 (principal
    arcsine branch); its pathloss is NaN otherwise. The geometry is computed once. asin
    and sin are libm's, one element at a time: numpy's SIMD arcsin can differ from libm in
    the last bit, and the committed outputs hold libm's bits.
    """
    tx = np.asarray(tx_pos, dtype=float)
    d_i = float(np.linalg.norm(tx - scenario.ris_pos))
    r = float(np.linalg.norm(scenario.bob_pos - scenario.ris_pos))
    theta_i = incidence_angle(tx, scenario)
    lam = scenario.wavelength
    s = (math.sin(theta_i)
         + lam * np.asarray(gradients, dtype=float) / (TWO_PI * scenario.refractive_index))
    propagating = ~(np.abs(s) > 1.0)
    sin_r = [math.sin(math.asin(v)) for v in np.where(propagating, s, 0.0).tolist()]
    u = (math.pi * scenario.element_b / lam) * (math.sin(theta_i) - np.array(sin_r))
    # removable singularity at u = 0: (sin u / u)^2 = 1 - u^2/3 + O(u^4)
    small = np.abs(u) < 1e-8
    sinc = np.array([math.sin(v) for v in u.tolist()]) / np.where(small, 1.0, u)
    ab = scenario.element_a * scenario.element_b
    gain = (scenario.tx_gain * scenario.rx_gain / (4.0 * math.pi) ** 2
            * (ab / (d_i * r)) ** 2
            * math.cos(theta_i) ** 2)
    pathloss = gain * np.where(small, 1.0 - u * u / 3.0, sinc * sinc)
    return np.where(propagating, pathloss, math.nan), propagating


def ris_pathloss(scenario: Scenario, tx_pos, gradient: float) -> float:
    """Single-element reflection pathloss (linear power gain) from tx via the panel to Bob."""
    (pathloss,), (propagating,) = ris_pathloss_grid(scenario, tx_pos, [gradient])
    if not propagating:
        raise EvanescentError(f"no propagating reflection at gradient {gradient!r} rad/m")
    return float(pathloss)


def fspl(tx_pos, rx_pos, scenario: Scenario) -> float:
    """Friis free-space gain Gt*Gr*(lambda / 4 pi d)^2 for the direct link."""
    d = float(np.linalg.norm(np.asarray(tx_pos, dtype=float) - np.asarray(rx_pos, dtype=float)))
    if d == 0.0:
        raise GeometryError("coincident transmitter and receiver positions")
    return scenario.tx_gain * scenario.rx_gain * (scenario.wavelength / (4.0 * math.pi * d)) ** 2


def pathloss_pair(scenario: Scenario, gradient: float, ris: bool = True) -> tuple[float, float]:
    """(Alice, Eve) linear pathloss to Bob: reflected at `gradient`, or Friis when ris=False."""
    if ris:
        return (ris_pathloss(scenario, scenario.alice_pos, gradient),
                ris_pathloss(scenario, scenario.eve_pos, gradient))
    return (fspl(scenario.alice_pos, scenario.bob_pos, scenario),
            fspl(scenario.eve_pos, scenario.bob_pos, scenario))
