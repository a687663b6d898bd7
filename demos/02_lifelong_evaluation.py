"""Drive predictors through the predict-then-reveal loop.

A dataset cut into N blocks is evaluated in N-1 steps: predict the next
block, get its labels revealed, continue.  Each block is scored with ROC
AUC; the per-dataset score is the mean over evaluated blocks, zeroed if the
predictor overruns its time budget.
"""

import time


from driftbench.baseline import BaselineConfig, BaselinePredictor
from driftbench.harness import ConstantPredictor, run_lifelong
from driftbench.synth import DriftGenSpec, generate_drift_stream

spec = DriftGenSpec(n_rows=3000, n_cat=3, n_num=4, n_mvc=1, n_time=1,
                    n_blocks=10, drift="gradual", drift_magnitude=1.2, seed=5)
ds = generate_drift_stream(spec)

predictors = {
    "constant 0.5": ConstantPredictor(),
    "boosted baseline": BaselinePredictor(BaselineConfig(
        initial_trees=30, trees_per_block=8, max_depth=3, learning_rate=0.2,
        seed=5)),
}

print(f"stream: {len(ds)} rows, {spec.n_blocks} blocks, gradual drift\n")
print(f"{'predictor':>18} " + " ".join(f"b{k}" for k in range(1, 10)) + "   mean")
for name, predictor in predictors.items():
    trace = run_lifelong(ds, spec.n_blocks, predictor, budget_seconds=300)
    blocks = " ".join(f"{s.auc:.2f}"[1:] for s in trace.steps)
    print(f"{name:>18} {blocks}   {trace.mean_auc:.3f} "
          f"({trace.total_elapsed_seconds:.2f}s billed)")

# The budget is enforced: this predictor naps through its allowance and the
# dataset is zeroed.
class Napper(ConstantPredictor):
    def learn(self, block, remaining_budget_seconds):
        time.sleep(0.3)

trace = run_lifelong(ds, spec.n_blocks, Napper(), budget_seconds=0.2)
print(f"\n{'napper':>18} outcome={trace.outcome} mean_auc={trace.mean_auc} "
      f"disqualified={trace.disqualified}")
