"""The benchmark's workloads and the config each one writes.

Every workload is one predictor on one phase, evaluated with ``--jobs 1``,
so at most one external child runs at a time.  Budgets are generous: no
dataset should be disqualified at any commit, and one that is counts as a
failed operation.

* ``learner-inproc`` -- the in-process boosted baseline on shape-A streams
  (51 cat / 23 num / 6 mvc / 2 time) under gradual drift, full history.
  Tree fitting dominates; split-search, cached-margin and encoding changes
  show here, subprocess and staging changes should not.
* ``protocol-echo`` -- the constant external predictor on one stream of
  each shape A-E with mixed drift.  The learner does no work; synthesis,
  the data path and the per-step subprocess cost make up the run.
* ``learner-wire`` -- the same learner as an external program on
  numeric-heavy shape-D streams under abrupt drift with a sliding window.
  Model state is unpickled and pickled every step and numeric columns have
  about one distinct value per row, so a change that helps only
  low-cardinality features, slows parsing or grows the state shows here.

Learner workloads carry several streams so that a run's time and mean AUC
average over more than one input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

BUDGET_SECONDS = 600.0


@dataclass(frozen=True)
class Workload:
    name: str
    n_blocks: int
    datasets: tuple[tuple[str, str, float], ...]    # (shape, drift, magnitude)
    rows: int
    predictor: str                                  # baseline | echo | reference
    learner: dict                                   # baseline options; {} for echo

    @property
    def dataset_ids(self) -> list[str]:
        return [f"{shape}{i}" for i, (shape, _, _) in enumerate(self.datasets)]


_LEARNER = {"initial_trees": 6, "trees_per_block": 3, "max_depth": 4, "learning_rate": 0.3}

WORKLOADS = {
    w.name: w for w in (
        Workload("learner-inproc", 10, (("A", "gradual", 0.8),) * 3, 1500, "baseline",
                 dict(_LEARNER, policy="grow-full-history")),
        Workload("protocol-echo", 4,
                 (("A", "none", 0.0), ("B", "gradual", 0.8), ("C", "abrupt", 2.5),
                  ("D", "gradual", 0.8), ("E", "abrupt", 2.5)),
                 1500, "echo", {}),
        Workload("learner-wire", 6, (("D", "abrupt", 2.5),) * 2, 2000, "reference",
                 dict(_LEARNER, policy="sliding-window", window_blocks=3)),
    )
}

#: Toy sizes used by the self-test: same code paths, a few seconds a run.
TOY = {"rows": 240, "n_blocks": 4, "learner": {"initial_trees": 2, "trees_per_block": 1,
                                               "max_depth": 2}}


def build(workload: Workload, seed: int, python: str, shim: str, traced: bool,
          toy: bool = False) -> tuple[dict, dict]:
    """Config file contents and extra environment for one iteration."""
    rows = TOY["rows"] if toy else workload.rows
    n_blocks = TOY["n_blocks"] if toy else workload.n_blocks
    learner = dict(workload.learner, **TOY["learner"]) if toy else dict(workload.learner)
    datasets = [
        {"id": ds_id, "phase": "feedback", "rows": rows, "shape": shape,
         "budget_seconds": BUDGET_SECONDS, "drift": drift, "drift_magnitude": magnitude}
        for ds_id, (shape, drift, magnitude) in zip(workload.dataset_ids, workload.datasets)
    ]
    env: dict[str, str] = {}
    if workload.predictor == "baseline":
        predictor = {"name": "gbt", "type": "baseline", "options": learner}
    else:
        module = ("driftbench.echo_predictor" if workload.predictor == "echo"
                  else "driftbench.reference_predictor")
        launch = [python, shim, module] if traced else [python, "-m", module]
        predictor = {"name": workload.predictor, "type": "command", "command": launch}
        if learner:
            env["DRIFTBENCH_BASELINE_CONFIG"] = json.dumps(dict(learner, seed=seed))
    config = {"seed": seed, "n_blocks": n_blocks, "data_dir": "data", "output_dir": "out",
              "datasets": datasets, "predictors": [predictor]}
    return config, env
