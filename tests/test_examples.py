"""Smoke tests for the example scripts.

Each example must run to completion on a reduced configuration and print
its headline output — this keeps the documentation executable.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 300.0) -> str:
    """Run one example in a subprocess and return its stdout."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


class TestExamples:
    def test_examples_directory_contents(self):
        scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart.py" in scripts
        assert len(scripts) >= 5

    def test_lab_composition(self):
        out = run_example("lab_composition.py")
        assert "crash storm" in out
        assert "fault events injected" in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Completed tasks:" in out
        assert "Tasks per cluster:" in out
        assert "taurus" in out

    def test_policy_comparison_reduced(self):
        out = run_example("policy_comparison.py")
        assert "Table II" in out
        assert "Figure 2" in out and "Figure 4" in out
        assert "POWER energy saving vs RANDOM" in out

    def test_user_preferences(self):
        out = run_example("user_preferences.py")
        assert "Equation 1" in out
        assert "Equation 6" in out
        assert "P_user" in out

    def test_heterogeneity_study(self):
        out = run_example("heterogeneity_study.py")
        assert "2 server types" in out
        assert "4 server types" in out
        assert "GreenPerf achieves the best trade-off" in out

    def test_adaptive_provisioning_short(self):
        out = run_example("adaptive_provisioning.py", "--minutes", "40")
        assert "Figure 9" in out
        assert "Candidate pool over time:" in out
        assert "Completed tasks:" in out
