"""Compare drift-handling policies on an abruptly switching stream.

At the midpoint block the labeling function rotates hard; everything the
model learned before the switch turns misleading.  Three strategies, a
frozen model and one per drift policy:

* frozen            -- fit once on block 0, never update (the strawman)
* grow-full-history -- keep extending, subsample all history with recency bias
* sliding-window    -- train added trees only on the last two blocks
"""

import numpy as np

from driftbench.baseline import DRIFT_POLICIES, BaselineConfig, BaselinePredictor
from driftbench.harness import run_lifelong
from driftbench.synth import DriftGenSpec, generate_drift_stream

spec = DriftGenSpec(n_rows=3000, n_cat=3, n_num=4, n_mvc=1, n_time=1,
                    n_blocks=10, drift="abrupt", drift_magnitude=2.5,
                    cat_cardinality=20, seed=3)
ds = generate_drift_stream(spec)
mid = spec.n_blocks // 2
base = dict(initial_trees=30, trees_per_block=8, max_depth=3, learning_rate=0.2,
            window_blocks=2, seed=3)

strategies = {"frozen": BaselinePredictor(BaselineConfig(**base), freeze_after_initial=True)}
strategies.update((policy, BaselinePredictor(BaselineConfig(policy=policy, **base)))
                  for policy in DRIFT_POLICIES)

print(f"abrupt switch before block {mid}; per-block AUC:\n")
header = " ".join(f"  b{k}" for k in range(1, spec.n_blocks))
print(f"{'policy':>18} {header}   post-drift mean")
for name, predictor in strategies.items():
    trace = run_lifelong(ds, spec.n_blocks, predictor, budget_seconds=300)
    aucs = [s.auc for s in trace.steps]
    post = float(np.mean([s.auc for s in trace.steps if s.step >= mid]))
    row = " ".join(f"{a:.2f}" for a in aucs)
    print(f"{name:>18} {row}   {post:.3f}")

print("\nThe frozen model scores *below* 0.5 after the switch (its learned"
      "\ndirection now anti-correlates); the full history still samples the"
      "\nstale blocks and recovers slowly; the sliding window sheds them"
      "\nfastest and recovers first.")
