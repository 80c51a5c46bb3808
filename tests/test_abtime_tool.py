"""tools/abtime.py: one layer of this checkout timed against a git revision."""

import importlib.util
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # where abtime.py imports its harness from
_PATH = ROOT / "tools" / "abtime.py"
_SPEC = importlib.util.spec_from_file_location("abtime_tool", _PATH)
abtime = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abtime)


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_head_against_head_agrees_on_every_call():
    argv = ["HEAD", "--layer", "client_opt", "--workload", "known", "--rounds", "2"]
    proc = subprocess.run(
        [sys.executable, str(_PATH), *argv, "--passes", "2"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "client_opt on known, seed 3, 2 rounds: 2 calls, 2 passes"
    assert lines[-1] == "  bitwise equal on every call: yes"


@dataclass
class _Step:
    weights: np.ndarray
    rng: np.random.Generator


def test_bits_tell_apart_values_that_compare_equal():
    def step(weights, draws=0):
        rng = np.random.default_rng(5)
        rng.random(draws)
        return abtime.bits(_Step(np.array(weights), rng))

    assert step([0.0, 1.0]) == step([0.0, 1.0])
    assert step([-0.0, 1.0]) != step([0.0, 1.0])
    assert step([0.0, np.nextafter(1.0, 2.0)]) != step([0.0, 1.0])
    assert step([0.0, 1.0], draws=1) != step([0.0, 1.0])
