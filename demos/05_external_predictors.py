"""Evaluate an external program through the request loop.

The harness launches the program once per dataset as

    <command> --schema F --workdir D

Per step it writes a labeled train file and an unlabeled test file, sends
one JSON request line on the program's stdin

    {"step": k, "token": T, "train": F, "test": F, "pred_out": F,
     "remaining_budget": S}

and waits for the answer ``{"token": T}`` on its stdout, which echoes the
request's fresh token and carries nothing else; the program logs to
stderr, which lands in ``<workdir>/stderr.txt``.  The harness then reads
one score per line from ``pred_out``.  The program keeps its model in
memory between steps; it is killed the moment the remaining budget runs
out, and told to exit by the end of its stdin once the run is over.

Two external predictors ship with the package:

* ``python -m driftbench.echo_predictor``      -- constant 0.5 scores
* ``python -m driftbench.reference_predictor`` -- the boosted baseline
"""

import os
import sys
import tempfile
import textwrap

from driftbench.harness import SubprocessPredictor, run_lifelong
from driftbench.synth import DriftGenSpec, generate_drift_stream

spec = DriftGenSpec(n_rows=1500, n_cat=2, n_num=3, n_mvc=1, n_time=1,
                    n_blocks=6, drift="gradual", drift_magnitude=1.0, seed=2)
ds = generate_drift_stream(spec)

os.environ["DRIFTBENCH_BASELINE_CONFIG"] = (
    '{"initial_trees": 20, "trees_per_block": 6, "max_depth": 3,'
    ' "learning_rate": 0.25}'
)

with tempfile.TemporaryDirectory() as scratch:
    for module in ("driftbench.echo_predictor", "driftbench.reference_predictor"):
        predictor = SubprocessPredictor(
            [sys.executable, "-m", module],
            workdir=os.path.join(scratch, module.rsplit(".", 1)[1]),
        )
        trace = run_lifelong(ds, spec.n_blocks, predictor, budget_seconds=120)
        blocks = " ".join(f"{s.auc:.2f}" for s in trace.steps)
        print(f"{module.rsplit('.', 1)[1]:>20}: outcome={trace.outcome} "
              f"blocks [{blocks}] mean {trace.mean_auc:.3f} "
              f"billed {trace.total_elapsed_seconds:.2f}s")

    print("\nfiles left in the last work directory (no model state: it lived in memory):")
    workdir = os.path.join(scratch, "reference_predictor")
    print(textwrap.fill("  ".join(sorted(os.listdir(workdir))), width=76,
                        initial_indent="   ", subsequent_indent="   "))
