"""Every demo script runs to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# Text a demo's output must hold, where a broken demo could still exit 0.
EXPECTED_OUTPUT = {"02_lifelong_evaluation": "outcome=timed-out"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # conftest has already put this checkout's src on PYTHONPATH.
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert EXPECTED_OUTPUT.get(demo.stem, "") in proc.stdout, proc.stdout[-2000:]
