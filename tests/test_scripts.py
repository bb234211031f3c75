"""The experiment scripts, at their default sizes, regenerate results/ byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["pathloss", "cir"])
def test_defaults_reproduce_results(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, f"scripts/{name}_experiments.py", "--outdir", str(tmp_path)],
                   cwd=ROOT, env=env, check=True, capture_output=True, timeout=300)
    committed = ROOT / "results" / name
    expected = sorted(p.name for p in committed.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for file_name in expected:
        assert (tmp_path / file_name).read_bytes() == (committed / file_name).read_bytes(), file_name
