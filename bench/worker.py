"""One benchmark iteration, run in a fresh Python process by ``run.py``.

Usage: ``python bench/worker.py SPEC.json``.  The spec names the config
file, the predictor, the expected datasets and whether to trace.  The
worker imports driftbench (the import counts towards set-up), runs
``generate``, ``evaluate`` and ``leaderboard`` through ``driftbench.cli.main``
exactly as the command line would, checks the outputs, and writes its
measurements to the spec's ``result`` path.  Only the standard library is
imported before the package, so set-up includes numpy's import as a user's
first command does.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from child_shim import TRACE_FILE  # noqa: E402
from tracer import Tracer, nesting_errors, self_times  # noqa: E402

MASKED_KEY_PARTS = ("elapsed", "duration")


def _masked(obj):
    if isinstance(obj, dict):
        return {k: ("<time>" if any(p in k for p in MASKED_KEY_PARTS) else _masked(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_masked(v) for v in obj]
    return obj


def output_digest(root: Path) -> str:
    """SHA-256 over the generated data and the judge's outputs, with
    wall-clock fields masked as acceptance criterion 8 masks them:
    JSON keys containing ``elapsed``/``duration`` and the leaderboard's
    duration column.  External predictors' scratch files are left out."""
    h = hashlib.sha256()
    for path in sorted(p for d in ("data", "out") for p in (root / d).rglob("*")
                       if p.is_file() and "work" not in p.relative_to(root).parts):
        body = path.read_bytes()
        if path.suffix == ".json":
            body = json.dumps(_masked(json.loads(body)), sort_keys=True).encode()
        elif path.name.startswith("leaderboard"):
            body = "\n".join(line.rsplit(",", 1)[0] for line in body.decode().splitlines()).encode()
        h.update(str(path.relative_to(root)).encode() + b"\0" + body + b"\0")
    return h.hexdigest()


def check_outputs(spec: dict, out: Path, codes: dict) -> tuple[list[str], int, dict, list[float]]:
    """Failure messages, the number of failed datasets, the values the
    end-to-end metrics read from the outputs, and every step's billed
    seconds.  A failure of the whole run fails every dataset in it."""
    failures: list[str] = []
    pred_dir = out / spec["predictor"]
    submission = json.loads((pred_dir / "submission.json").read_text())
    block_elapsed: list[float] = []
    for ds in spec["datasets"]:
        trace = json.loads((pred_dir / f"{ds}.trace.json").read_text())
        score = json.loads((pred_dir / f"{ds}.score.json").read_text())
        entry = submission["datasets"].get(ds)
        problem = ""
        if trace["outcome"] != "completed":
            problem = f"outcome {trace['outcome']}: {trace['error']}"
        elif len(trace["steps"]) != spec["n_blocks"] - 1:
            problem = f"{len(trace['steps'])} steps for {spec['n_blocks']} blocks"
        elif entry is None or entry["disqualified"] or entry["auc"] != score["mean_auc"]:
            problem = f"submission entry {entry} disagrees with score file"
        elif spec["echo"] and any(b["auc"] != 0.5 for b in score["blocks"]):
            problem = "constant predictor scored a block AUC other than 0.5"
        elif not 0.0 <= score["mean_auc"] <= 1.0:
            problem = f"mean AUC {score['mean_auc']} outside [0, 1]"
        if problem:
            failures.append(f"{ds}: {problem}")
        block_elapsed += [s["elapsed_seconds"] for s in trace["steps"]]
    n = len(spec["datasets"])
    completed_share = (n - len(failures)) / n
    aucs = [submission["datasets"][ds]["auc"] for ds in spec["datasets"]
            if ds in submission["datasets"]]
    mean_auc = sum(aucs) / len(aucs) if aucs else 0.0
    run_failures = []
    board = (out / "leaderboard_merged.csv").read_text().splitlines()
    if len(board) != 2 or board[1].split(",")[2] != spec["predictor"]:
        run_failures.append(f"merged leaderboard is malformed: {board}")
    bad_codes = {k: v for k, v in codes.items() if v != 0}
    if bad_codes:
        run_failures.append(f"nonzero exit codes {bad_codes}")
    failed = n if run_failures else len(failures)
    values = {
        "billed_s": float(submission["duration_seconds"]),
        "mean_auc": mean_auc,
        "completed_share": completed_share,
    }
    return failures + run_failures, failed, values, block_elapsed


def traced_layers(tracer: Tracer, out: Path, judge_s: float, billed_s: float,
                  block_elapsed: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (judge side plus external children) and the
    judge-side self-time partition of the root span."""
    parent_self = self_times(tracer.spans)
    layers: dict[str, float] = defaultdict(float)
    layers.update(parent_self)
    layers.update(tracer.counts)
    for path in (out / "work").rglob(TRACE_FILE):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            for metric, value in self_times(rec["spans"]).items():
                layers[metric] += value
            for key, value in rec["counts"].items():
                layers[key] += value
            layers["child.busy_s"] += sum(s[3] - s[2] for s in rec["spans"] if s[0] == "child.root")
        layers["baseline.state_bytes"] += records[-1]["state_bytes"]
    layers["harness.unbilled_s"] = sum(a.unbilled_seconds for a in tracer.adapters.values())
    layers["harness.overhead_s"] = judge_s - billed_s
    layers["harness.step_p50_s"] = statistics.median(block_elapsed) if block_elapsed else 0.0
    root = tracer.spans[0]
    return dict(layers), {"root_s": root[3] - root[2], "self_s": parent_self,
                          "nesting_errors": nesting_errors(tracer.spans)}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t_import = time.perf_counter()
    import driftbench
    import driftbench.cli as cli
    t_imported = time.perf_counter()
    src = Path(spec["src"]).resolve()
    if src not in Path(driftbench.__file__).resolve().parents:
        raise SystemExit(f"driftbench imported from {driftbench.__file__}, not from {src}")

    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        root = tracer.open("root", "trace.gap_s", start=_T0)
        tracer.close(tracer.open("cli.import", "cli.import_s", start=t_import), end=t_imported)
        tracer.install()

    config = spec["config"]
    workdir = Path(config).parent
    out = workdir / "out"
    codes = {"generate": cli.main(["generate", "--config", config])}
    t_setup = time.perf_counter()
    codes["evaluate"] = cli.main(["evaluate", "--config", config, "--predictor",
                                  spec["predictor"], "--jobs", "1"])
    codes["leaderboard"] = cli.main(["leaderboard", str(out / spec["predictor"]),
                                     "--merge", "--out", str(out)])
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.close(root, end=t_end)

    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    failures, failed, values, block_elapsed = check_outputs(spec, out, codes)
    result = {
        "failures": failures,
        "failed": failed,
        "digest": output_digest(workdir),
        "driftbench_file": driftbench.__file__,
        "stamps": {"import": t_import, "setup": t_setup, "end": t_end},
        "metrics": dict(values,
                        setup_s=t_setup - t_import,
                        judge_s=t_end - t_setup,
                        peak_rss_mb=max(usage) / 1024.0),
    }
    if tracer is not None:
        result["layers"], result["partition"] = traced_layers(
            tracer, out, t_end - t_setup, values["billed_s"], block_elapsed)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
