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
