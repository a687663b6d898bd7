"""Traced launcher for an external predictor step.

Usage: ``python bench/child_shim.py <module> <protocol arguments...>``.

Imports ``<module>`` (timed as ``child.import_s``), installs the same
wrappers as the judge-side tracer plus pickle load/dump timing, runs the
module's ``main`` on the protocol arguments, then appends one JSON line
with its spans, counts and the size of the predictor's state file to
``bench_trace.jsonl`` in the step's work directory.  The exit code is the
module's.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

TRACE_FILE = "bench_trace.jsonl"
STATE_FILE = "baseline_state.pkl"   # written by driftbench.reference_predictor


def main() -> int:
    module_name, argv = sys.argv[1], sys.argv[2:]
    workdir = Path(argv[argv.index("--workdir") + 1])
    tracer = Tracer()
    root = tracer.open("child.root", "child.gap_s", start=_T0)
    imp = tracer.open("child.import", "child.import_s")
    module = importlib.import_module(module_name)
    tracer.close(imp)
    tracer.install()
    tracer.install_pickle()
    try:
        code = module.main(argv)
    finally:
        tracer.close(root)
        state = workdir / STATE_FILE
        record = tracer.export()
        record["state_bytes"] = state.stat().st_size if state.exists() else 0
        with open(workdir / TRACE_FILE, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
