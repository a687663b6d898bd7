"""Evaluate an external program through the file protocol.

Per step the harness writes a labeled train file, an unlabeled test file
and the schema, then runs

    <command> --train F --test F --schema F --pred-out F \\
              --remaining-budget S --step K --workdir D

and reads one score per line back.  The work directory persists across
steps, so the program can keep its model warm; the process is killed the
moment the remaining budget runs out.

Two external predictors ship with the package:

* ``python -m driftbench.echo_predictor``      -- constant 0.5 scores
* ``python -m driftbench.reference_predictor`` -- the boosted baseline
"""

import os
import sys
import tempfile

from driftbench.data import plan_blocks
from driftbench.harness import SubprocessPredictor, run_lifelong
from driftbench.synth import DriftGenSpec, generate_drift_stream

spec = DriftGenSpec(n_rows=1500, n_cat=2, n_num=3, n_mvc=1, n_time=1,
                    n_blocks=6, drift="gradual", drift_magnitude=1.0, seed=2)
ds = generate_drift_stream(spec)
plan = plan_blocks(len(ds), spec.n_blocks)

os.environ["DRIFTBENCH_BASELINE_CONFIG"] = (
    '{"initial_trees": 20, "trees_per_block": 6, "max_depth": 3,'
    ' "learning_rate": 0.25}'
)

with tempfile.TemporaryDirectory() as scratch:
    for module in ("driftbench.echo_predictor", "driftbench.reference_predictor"):
        predictor = SubprocessPredictor(
            [sys.executable, "-m", module],
            workdir=os.path.join(scratch, module.rsplit(".", 1)[1]),
            name=module,
        )
        trace = run_lifelong(ds, plan, predictor, budget_seconds=120,
                             dataset_id="demo")
        blocks = " ".join(f"{s.auc:.2f}" for s in trace.steps)
        print(f"{module.rsplit('.', 1)[1]:>20}: outcome={trace.outcome} "
              f"blocks [{blocks}] mean {trace.mean_auc:.3f} "
              f"billed {trace.total_elapsed_seconds:.2f}s")

    print("\nstep files left in the last work directory:")
    workdir = os.path.join(scratch, "reference_predictor")
    for name in sorted(os.listdir(workdir))[:6]:
        print("  ", name)
