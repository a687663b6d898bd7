"""Put this checkout's ``src`` on ``PYTHONPATH`` for the predictor programs
the tests start as child processes; ``pythonpath`` in ``pyproject.toml``
covers only the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
