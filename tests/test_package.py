import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftbench import cli
from driftbench.data import plan_blocks

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "driftbench"
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"


def test_echo_predictor_import_leaves_numpy_out():
    # The constant predictor starts as a fresh process once per dataset,
    # and the launch is billed to the dataset's first step, so whatever the
    # package import pulls in is billed too.
    code = "import sys, driftbench.echo_predictor; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def unused_imports(source: str) -> list[str]:
    """The names an ``import`` in ``source`` binds that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c\nos.sep\n") == \
        ["line 1: math", "line 3: c"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_modules_import_only_what_they_use(module):
    # Most changes here delete code; an import the deleted code needed
    # would otherwise stay behind unnoticed.
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_benchmark_trace_targets_resolve():
    # The benchmark's tracer patches these functions by name; one renamed
    # or deleted here would fail every traced iteration at install time.
    spec = importlib.util.spec_from_file_location("driftbench_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr, _metric, _hook in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"


def _bench_module(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"driftbench_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks a class's module up by name while building it.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_benchmark_workload_outputs_pass_its_checks(tmp_path, monkeypatch, name):
    # The benchmark reads the judge's outputs by file name and key; one
    # renamed here would fail every benchmark run, so each workload's toy
    # config runs the pipeline as the benchmark's worker does.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = _bench_module("workloads", monkeypatch)
    worker = _bench_module("worker", monkeypatch)
    workload = workloads.WORKLOADS[name]
    config, env = workloads.build(workload, 1, sys.executable, str(BENCH / "child_shim.py"),
                                  traced=False, toy=True)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    predictor = config["predictors"][0]["name"]
    out = tmp_path / "out"
    codes = {
        "generate": cli.main(["generate", "--config", str(path)]),
        "evaluate": cli.main(["evaluate", "--config", str(path), "--predictor", predictor,
                              "--jobs", "1"]),
        "leaderboard": cli.main(["leaderboard", str(out / predictor), "--merge",
                                 "--out", str(out)]),
    }
    spec = {"predictor": predictor, "datasets": workload.dataset_ids,
            "n_blocks": config["n_blocks"], "echo": workload.predictor == "echo"}
    failures, failed, _values, _elapsed = worker.check_outputs(spec, out, codes)
    assert (failures, failed) == ([], 0)


TRACED_RUN = """\
import importlib.util, json, sys
from driftbench.baseline import BaselineConfig, BaselinePredictor
from driftbench.harness import run_lifelong
from driftbench.synth import desk_spec, generate_drift_stream

spec = importlib.util.spec_from_file_location("driftbench_bench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
ds = generate_drift_stream(desk_spec("A", 400, n_blocks=5, drift="gradual",
                                     drift_magnitude=1.0, seed=3))
pred = BaselinePredictor(BaselineConfig(initial_trees=3, trees_per_block=2, max_depth=3,
                                        subsample_cap=150, seed=3))
trace = run_lifelong(ds, 5, pred, budget_seconds=600)
print(json.dumps({"outcome": trace.outcome, "rows": len(ds), "counts": tracer.counts,
                  "trees": pred.ensemble.n_trees,
                  "nodes": sum(t.n_nodes for t in pred.ensemble.trees)}))
"""


def test_benchmark_tracer_counts_the_baselines_trees():
    # The tracer's count hooks read RegressionTree.fit's arguments by
    # position.  It patches the package, so it runs in a child process.
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACER)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["outcome"] == "completed"
    counts = run["counts"]
    assert counts["baseline.trees"] == run["trees"] == 3 + 3 * 2
    assert counts["baseline.nodes"] == run["nodes"]
    # Blocks 0..3 are revealed; each round's sample is the pool so far,
    # capped at 150 rows, and every tree of the round is fitted on it.
    pool = np.cumsum([hi - lo for lo, hi in plan_blocks(run["rows"], 5)][:-1])
    trees = [3, 2, 2, 2]
    assert counts["baseline.fit_rows"] == sum(min(150, n) * k for n, k in zip(pool, trees))
