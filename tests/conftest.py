import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from rispla.channel import load_scenario

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

REPO_ROOT = Path(__file__).resolve().parents[1]
TABLE1 = REPO_ROOT / "scenarios" / "table1.cfg"


def table1_with(**values) -> str:
    """table1.cfg's text with the line of each given key set to its value: a scenario file
    may set a key once."""
    text = TABLE1.read_text()
    for key, value in values.items():
        text, n = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1, key
    return text


def reference_box_muller(u, v):
    """Box-Muller as the engine computed it before the radius and angle were shared."""
    rad = np.sqrt(-2.0 * np.log1p(-u))
    ang = 2.0 * math.pi * v
    return rad * np.cos(ang), rad * np.sin(ang)


def single_precision_trig_error() -> tuple[float, dict]:
    """The largest |cos - libm cos| and |sin - libm sin| of the float32-rounded angle, as the
    engine's single-precision decode takes it, over 10^7 angles in [0, 2 pi) with both ends;
    and the SIMD target that numpy dispatched float32 cos and sin to (opt_func_info)."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(10):
        ang = 2.0 * math.pi * rng.random(10**6)
        if k == 0:  # the ends of [0, 2 pi)
            ang[:2] = 0.0, np.nextafter(2.0 * math.pi, 0.0)
        single = ang.astype(np.float32)
        for trig in (np.cos, np.sin):
            worst = max(worst, float(np.max(np.abs(trig(single) - trig(ang)))))
    return worst, np.lib.introspect.opt_func_info(func_name="^(cos|sin)$", signature="float32.*")


class RedecodeSpy:
    """Wraps the index-array calls of mc._decode for a test: records each batch of trials that
    sweep_trials or a phase search re-decodes exactly, and whether a re-decode is running (for
    spies on what it calls). Calls on a range of trials, the engine's chunks, pass through."""

    def __init__(self, monkeypatch):
        from rispla import mc

        self.batches, self.running = [], False
        real = mc._decode

        def spy(plan, trials, *args):
            if isinstance(trials, range):
                return real(plan, trials, *args)
            self.batches.append(trials.copy())
            self.running = True
            try:
                return real(plan, trials, *args)
            finally:
                self.running = False

        monkeypatch.setattr(mc, "_decode", spy)

    @property
    def trials(self) -> list[int]:
        return [t for batch in self.batches for t in batch.tolist()]


@pytest.fixture(scope="session")
def scenario():
    """Shipped default scenario (256 elements, 100 dB link quality)."""
    return load_scenario(TABLE1)


@pytest.fixture(scope="session")
def scenario_small(scenario):
    """Desk-scale variant for CIR features: 8 elements, 20 dB link quality."""
    return replace(scenario, n_elements=8, lq_db=20.0)
