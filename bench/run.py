#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the driftbench judge.

Usage (from the repository root)::

    python3 bench/run.py --workload learner-inproc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all                  # every workload in turn

Each iteration runs in a fresh Python process (``bench/worker.py``) with
this checkout's ``src`` first on ``PYTHONPATH``: it imports the package,
then runs ``generate`` -> ``evaluate`` -> ``leaderboard`` through the CLI
on a config the benchmark writes from the workload and ``--seed``.
Iterations repeat until ``--seconds`` is used up (at least three), and
each metric is the median over iterations.  Every iteration's outputs are
checked (see ``worker.check_outputs``) and digested with wall-clock fields
masked; an iteration whose digest differs from the run's first counts its
datasets as failed.

Times are in reference seconds.  The run is pinned to one CPU, and while
each iteration runs this process times one unit of a fixed kernel
(``bench/calibrate.py``) on that CPU every 0.1 s.  Each phase's wall time,
less the kernel's share, is scaled by the host speed the units show, so
that a shared host's drift does not read as a change in the program.  The
unscaled medians and the scale factors are printed too.

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics from the traced ones (medians), plus the tracing
overhead: traced ``judge_s`` minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  If no iteration of a kind the run needs
completes (the package fails to import, the CLI crashes), the result reads
``correct: false`` with every dataset failed and every metric 0.  Only a
checkout without ``src/driftbench`` exits non-zero without a result.
Scratch files live under ``.bench_work/`` in the checkout and are removed
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS, build

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
RUN_DEADLINE_S = 170.0   # a still-running iteration is killed here (runs must end by 180 s)
RUN_CAP_S = 150.0        # no iteration starts past this, whatever --seconds says
PROBE_GAP_S = 0.1        # pause between host-speed samples while a worker runs


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _git_state() -> tuple[str, bool | None]:
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return sha or "unknown", dirty


def _numpy_version(env: dict[str, str]) -> str:
    """numpy's version, or "unavailable" when the package does not import
    (every iteration then fails and says why)."""
    proc = subprocess.run([sys.executable, "-c", "import driftbench.cli, numpy; print(numpy.__version__)"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        print(f"  cannot import driftbench from {ROOT / 'src'}: "
              + " | ".join(proc.stderr.strip().splitlines()[-3:]), file=sys.stderr)
        return "unavailable"
    return proc.stdout.strip()


def _to_reference_seconds(result: dict, units: list[tuple[float, float]]) -> None:
    """Scale an iteration's times to reference seconds, keeping the raw ones.

    ``units`` are the (wall-clock midpoint, CPU seconds) of the kernel units
    this process ran on the worker's CPU while the worker ran.  For each
    phase, set-up and judge, the units inside it give the host's speed
    during it, and their CPU time comes off the phase's wall time: the
    worker could not run while they did.  ``billed_s`` and per-layer times
    take the judge phase's factor."""
    metrics, stamps = result["metrics"], result["stamps"]
    factors = {}
    for phase, lo, hi in (("setup", stamps["import"], stamps["setup"]),
                          ("judge", stamps["setup"], stamps["end"])):
        inside = [cpu for mid, cpu in units if lo <= mid <= hi]
        speed_units = inside or [cpu for _, cpu in units] or [calibrate.probe()]
        wall = max(hi - lo, 1e-9)
        factors[phase] = ((wall - sum(inside)) / wall * calibrate.REFERENCE_UNIT_S
                          / statistics.fmean(speed_units))
    result["raw"] = {k: metrics[k] for k in ("setup_s", "judge_s", "billed_s")}
    result["scale"] = factors
    metrics["setup_s"] *= factors["setup"]
    metrics["judge_s"] *= factors["judge"]
    metrics["billed_s"] *= factors["judge"]
    if "layers" in result:
        result["layers"] = {k: v * factors["judge"] if k.endswith("_s") else v
                            for k, v in result["layers"].items()}


def run_iteration(workload, seed: int, traced: bool, iter_dir: Path, env: dict,
                  toy: bool, timeout: float) -> dict | None:
    """Run one worker process; return its result (``None`` if it crashed or
    was killed at ``timeout``)."""
    iter_dir.mkdir(parents=True)
    config, extra_env = build(workload, seed, sys.executable, str(BENCH_DIR / "child_shim.py"),
                              traced, toy)
    (iter_dir / "config.json").write_text(json.dumps(config, indent=2))
    spec = {
        "config": str(iter_dir / "config.json"),
        "predictor": config["predictors"][0]["name"],
        "datasets": workload.dataset_ids,
        "n_blocks": config["n_blocks"],
        "echo": workload.predictor == "echo",
        "traced": traced,
        "src": str(ROOT / "src"),
        "result": str(iter_dir / "result.json"),
    }
    (iter_dir / "spec.json").write_text(json.dumps(spec))
    units: list[tuple[float, float]] = []
    stderr_path = iter_dir / "stderr.txt"
    with stderr_path.open("wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"),
                                 str(iter_dir / "spec.json")],
                                env=dict(env, **extra_env), cwd=iter_dir,
                                stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True)
        try:
            # Sample the host's speed on the worker's CPU while it runs.
            while proc.poll() is None:
                if time.perf_counter() - started > timeout:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    break
                t = time.perf_counter()
                cpu = calibrate.unit_time()
                units.append(((t + time.perf_counter()) / 2, cpu))
                try:
                    proc.wait(timeout=PROBE_GAP_S)
                except subprocess.TimeoutExpired:
                    pass
        except BaseException:
            # The run itself is being stopped: take the worker and its children along.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        process_s = time.perf_counter() - started
    result_path = iter_dir / "result.json"
    result = json.loads(result_path.read_text()) if proc.returncode == 0 and result_path.exists() else None
    if result is not None:
        result["process_s"] = process_s   # the worker's wall time, measured apart from its spans
        _to_reference_seconds(result, units)
    else:
        tail = stderr_path.read_text("utf-8", "replace").strip().splitlines()[-5:]
        print(f"  iteration failed (exit {proc.returncode}): " + " | ".join(tail), file=sys.stderr)
    shutil.rmtree(iter_dir, ignore_errors=True)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 toy: bool = False) -> dict:
    """Measure one workload: the result keys, both metric sets (per-layer
    only when tracing) with their quartiles, and the environment record.
    ``toy`` shrinks the inputs for the self-test."""
    workload = WORKLOADS[name]
    env = _env()
    run_dir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    load_before = os.getloadavg()
    numpy_version = _numpy_version(env)   # also compiles the package's bytecode
    n_ds = len(workload.dataset_ids)
    min_iterations = 4 if trace else 3
    records: list[tuple[bool, dict | None]] = []
    start = time.perf_counter()
    allowed = os.sched_getaffinity(0)
    # The worker, its children and the speed samples share one CPU, so the
    # samples see the speed the worker sees.
    os.sched_setaffinity(0, {min(allowed)})
    calibrate.probe()   # warm-up: the first units after start-up read slow
    try:
        while True:
            traced = trace and len(records) % 2 == 1
            t = time.perf_counter()
            result = run_iteration(workload, seed, traced, run_dir / f"iter-{len(records):03d}",
                                   env, toy, max(1.0, start + RUN_DEADLINE_S - t))
            records.append((traced, result))
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - t
            if len(records) >= min_iterations and (elapsed + last > seconds or elapsed > RUN_CAP_S):
                break
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    ok = [(traced, r) for traced, r in records if r is not None]
    untraced = [r for traced, r in ok if not traced]
    traced_runs = [r for traced, r in ok if traced]
    complete = bool(untraced) and (bool(traced_runs) or not trace)
    digest = ok[0][1]["digest"] if ok else None
    attempted = n_ds * len(records)
    failed = n_ds * (len(records) - len(ok))
    failures: list[str] = []
    for _, r in ok:
        if r["digest"] != digest:
            failed += n_ds
            failures.append(f"output digest {r['digest'][:12]} differs from {digest[:12]}")
        else:
            failed += r["failed"]
        failures += r["failures"]

    declared = {"end_to_end": spec["end_to_end"]}
    if trace:
        declared["per_layer"] = spec["per_layer"]
    if not complete:
        # Nothing to measure: every dataset failed and every metric reads 0.
        failed = attempted
        failures.append("no iteration of the needed kind completed")
        samples = {m["name"]: [0.0] for specs in declared.values() for m in specs}
    else:
        samples = {m["name"]: [r["metrics"][m["name"]] for r in untraced] for m in spec["end_to_end"]}
        if trace:
            judge_untraced = statistics.median(samples["judge_s"])
            for m in spec["per_layer"]:
                samples[m["name"]] = [r["layers"].get(m["name"], 0.0) for r in traced_runs]
            samples["trace.overhead_s"] = [r["metrics"]["judge_s"] - judge_untraced
                                           for r in traced_runs]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    for kind, metric_specs in declared.items():
        metrics, summary = {}, {}
        for m in metric_specs:
            values = samples[m["name"]]
            q1, q3 = _quartiles(values)
            med = statistics.median(values)
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                  "unit": m["unit"], "better": m["better"]}
        result[kind] = {"metrics": metrics, "summary": summary}
    sha, dirty = _git_state()
    env_record = {
        "workload": name, "seed": seed, "trace": int(trace), "toy": toy,
        "iterations": len(records), "traced_iterations": len(traced_runs),
        "digest": digest, "driftbench_file": ok[0][1]["driftbench_file"] if ok else None,
        "nproc": os.cpu_count(), "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_sha": sha, "git_dirty": dirty,
        "tracing_overhead_s": (statistics.median(samples["trace.overhead_s"])
                               if trace and complete else None),
        "cpu": min(allowed),
        "scale": {phase: [round(r["scale"][phase], 4) for _, r in ok] for phase in ("setup", "judge")},
        "unscaled_medians_s": ({k: statistics.median(r["raw"][k] for r in untraced)
                                for k in untraced[0]["raw"]} if untraced else None),
        "failures": list(dict.fromkeys(failures))[:20],
    }
    if trace:
        env_record["partitions"] = [dict(r["partition"], process_s=r["process_s"])
                                    for r in traced_runs]
    result["env"] = env_record
    return result


def print_report(result: dict, kind: str) -> None:
    env = result["env"]
    print(f"workload {env['workload']}  seed {env['seed']}  iterations {env['iterations']} "
          f"(traced {env['traced_iterations']})  attempted {result['attempted']} "
          f"failed {result['failed']}  digest {(env['digest'] or 'none')[:16]}")
    if env["unscaled_medians_s"]:
        judge = env["scale"]["judge"]
        print(f"  pinned to cpu {env['cpu']}; judge times scaled by {min(judge):.3f}-{max(judge):.3f}; "
              "unscaled medians " + ", ".join(f"{k} {v:.4f} s"
                                              for k, v in env["unscaled_medians_s"].items()))
    for name, s in result[kind]["summary"].items():
        print(f"  {name:<28} {s['median']:>14.6g} {s['unit']:<6} q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n={s['n']}  ({s['better']} is better)")
    for failure in env["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # unwind, so workers are killed
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "driftbench" / "__init__.py").is_file():
        print(f"error: no driftbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    selected = names if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), spec) for n in selected]
    kind = "per_layer" if args.trace else "end_to_end"
    for r in results:
        print_report(r, kind)
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed")}
        final["metrics"] = results[0][kind]["metrics"]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{r['env']['workload']}/{k}": v
                             for r in results for k, v in r[kind]["metrics"].items()}}
    print("env " + json.dumps([r["env"] for r in results]))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
