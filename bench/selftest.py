#!/usr/bin/env python3
"""Toy-size self-test of the benchmark; it is not part of the tier-1 suite.

Usage (from the repository root): ``python3 bench/selftest.py``.  Runs
every workload once, traced, at toy size (a minute or so in all) and
checks that:

* every metric BENCHMARK.json declares is emitted, with its unit and
  direction, and every end-to-end value is positive;
* every run is correct: all datasets completed, outputs repeat exactly;
* in each traced iteration the spans nest, every judge-side self time is
  charged to a declared per-layer metric, the root span agrees with the
  worker's wall time as ``run.py`` measured it from outside, and the time
  no layer claims (``trace.gap_s`` plus ``cli.self_s``) is a small share of
  the root, so a layer the tracer misses shows as a failure;
* each workload touches the layers it was chosen for and not the others;
* every per-layer metric is non-zero on at least one workload, so a
  misspelt metric cannot hide as a constant 0.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, run_workload

SEED = 3
#: (workload, per-layer metric, expectation) from each workload's rationale.
LAYER_EXPECTATIONS = (
    ("learner-inproc", "baseline.trees", "positive"),
    ("learner-inproc", "harness.child_s", "zero"),
    ("learner-inproc", "data.stage_s", "zero"),
    ("protocol-echo", "baseline.fit_s", "zero"),
    ("protocol-echo", "encoding.cells", "zero"),
    ("protocol-echo", "harness.child_s", "positive"),
    ("protocol-echo", "child.import_s", "positive"),
    ("learner-wire", "baseline.state_bytes", "positive"),
    ("learner-wire", "child.state_io_s", "positive"),
    ("learner-wire", "baseline.fit_s", "positive"),
)
#: Metrics that may legitimately read 0 (or below) on every workload.
MAY_BE_ZERO = {"harness.failed_steps", "trace.overhead_s"}
#: Largest share of the root span that no layer may claim.
UNCLAIMED_SHARE = 0.20
#: Most of the worker's wall time the root span may leave out (interpreter
#: start before it, output checks after it).
OUTSIDE_ROOT_S = 0.5


def check_workload(result: dict, spec: dict) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"run not correct: attempted {result['attempted']}, "
                        f"failed {result['failed']}: {result['env']['failures']}")
    for kind in ("end_to_end", "per_layer"):
        summary = result[kind]["summary"]
        if set(summary) != {m["name"] for m in spec[kind]}:
            problems.append(f"{kind} metrics emitted {sorted(summary)}")
        for m in spec[kind]:
            got = summary.get(m["name"], {})
            if (got.get("unit"), got.get("better")) != (m["unit"], m["better"]):
                problems.append(f"{m['name']}: unit/direction {got.get('unit')}/{got.get('better')}")
            value = result[kind]["metrics"].get(m["name"], {}).get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{m['name']}: value {value!r} is not a finite number")
            elif kind == "end_to_end" and value <= 0:
                problems.append(f"{m['name']}: end-to-end value {value} is not positive")
    declared = {m["name"] for m in spec["per_layer"]}
    for part in result["env"]["partitions"]:
        if part["nesting_errors"]:
            problems.append(f"{part['nesting_errors']} spans outside their parent")
        undeclared = set(part["self_s"]) - declared
        if undeclared:
            problems.append(f"self time charged to undeclared metrics {sorted(undeclared)}")
        if any(v < 0 for v in part["self_s"].values()):
            problems.append(f"negative self time in {part['self_s']}")
        root, process = part["root_s"], part["process_s"]
        if not 0 <= process - root <= OUTSIDE_ROOT_S:
            problems.append(f"root span {root:.3f} s, worker wall time {process:.3f} s")
        unclaimed = part["self_s"].get("trace.gap_s", 0.0) + part["self_s"].get("cli.self_s", 0.0)
        if unclaimed > UNCLAIMED_SHARE * root:
            problems.append(f"{unclaimed:.3f} s of the {root:.3f} s root span is claimed by no layer")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    failed = False
    for w in spec["workloads"]:
        results[w["name"]] = run_workload(w["name"], SEED, 0.0, True, spec, toy=True)
        problems = check_workload(results[w["name"]], spec)
        failed |= bool(problems)
        print(f"{'PASS' if not problems else 'FAIL'} {w['name']}")
        for p in problems:
            print(f"     {p}")

    def layer(workload: str, metric: str) -> float:
        return results[workload]["per_layer"]["metrics"][metric]["value"]

    problems = [f"{w}: {m} should be {want}, is {layer(w, m)}"
                for w, m, want in LAYER_EXPECTATIONS
                if (layer(w, m) > 0) != (want == "positive")]
    problems += [f"{m['name']} reads 0 on every workload"
                 for m in spec["per_layer"] if m["name"] not in MAY_BE_ZERO
                 and all(layer(w, m["name"]) == 0 for w in results)]
    failed |= bool(problems)
    print(f"{'PASS' if not problems else 'FAIL'} layer coverage")
    for p in problems:
        print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
