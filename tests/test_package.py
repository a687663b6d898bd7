import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_echo_predictor_import_leaves_numpy_out():
    # The constant predictor starts as a fresh process once per dataset,
    # and the launch is billed to the dataset's first step, so whatever the
    # package import pulls in is billed too.
    code = "import sys, driftbench.echo_predictor; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
