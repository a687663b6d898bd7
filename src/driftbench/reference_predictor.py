"""The boosted-ensemble baseline packaged as an external predictor.

Run as ``python -m driftbench.reference_predictor --schema F --workdir D``;
it answers the harness request loop until its stdin closes.  One
``BaselinePredictor`` (encoders, ensemble, learner options) stays in memory
across the steps, as a real code submission keeps its model warm through
the lifelong loop.

Learner options can be overridden with a JSON object in the environment
variable ``DRIFTBENCH_BASELINE_CONFIG``, e.g.
``{"initial_trees": 20, "max_depth": 3, "policy": "sliding-window"}``.
"""

from __future__ import annotations

import json
import os
import sys

from .baseline import BaselineConfig, BaselinePredictor
from .data import load_dataset, read_unlabeled
from .echo_predictor import serve


def _config_from_env() -> BaselineConfig:
    raw = os.environ.get("DRIFTBENCH_BASELINE_CONFIG", "")
    if not raw:
        return BaselineConfig()
    try:
        options = json.loads(raw)
    except ValueError as exc:
        raise ValueError(f"DRIFTBENCH_BASELINE_CONFIG is not valid JSON ({exc})") from None
    if not isinstance(options, dict):
        raise ValueError("DRIFTBENCH_BASELINE_CONFIG must be a JSON object, "
                         f"got {type(options).__name__}")
    return BaselineConfig(**options)


def main(argv=None) -> int:
    predictor = BaselinePredictor(_config_from_env())

    def step(args, request) -> None:
        train = load_dataset(request["train"], args.schema)
        predictor.learn(train, request["remaining_budget"])
        scores = predictor.predict(read_unlabeled(request["test"], train.schema))
        with open(request["pred_out"], "w", encoding="utf-8") as fh:
            fh.writelines(f"{s:.9f}\n" for s in scores)

    return serve(__doc__, step, argv)


if __name__ == "__main__":
    sys.exit(main())
