"""The boosted-ensemble baseline packaged as an external predictor.

Run as ``python -m driftbench.reference_predictor`` with the harness file
protocol arguments.  State (encoders, ensemble, learner options) persists
in the work directory between steps, exactly like a real code submission
would keep its model warm across the lifelong loop.

Learner options can be overridden with a JSON object in the environment
variable ``DRIFTBENCH_BASELINE_CONFIG``, e.g.
``{"initial_trees": 20, "max_depth": 3, "policy": "sliding-window"}``.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from pathlib import Path

from .baseline import BaselineConfig, BaselinePredictor
from .data import load_dataset, read_unlabeled
from .echo_predictor import protocol_argument_parser

STATE_FILE = "baseline_state.pkl"


def _config_from_env() -> BaselineConfig:
    raw = os.environ.get("DRIFTBENCH_BASELINE_CONFIG", "")
    if not raw:
        return BaselineConfig()
    return BaselineConfig(**json.loads(raw))


def main(argv=None) -> int:
    args = protocol_argument_parser(__doc__).parse_args(argv)
    state_path = Path(args.workdir) / STATE_FILE

    if args.step == 1 or not state_path.exists():
        predictor = BaselinePredictor(_config_from_env())
    else:
        with open(state_path, "rb") as fh:
            predictor = pickle.load(fh)

    train = load_dataset(args.train, args.schema)
    predictor.learn(train.rows, train.labels, train.schema, args.remaining_budget)

    test_rows = read_unlabeled(args.test, train.schema)
    scores = predictor.predict(test_rows)

    with open(args.pred_out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s:.9f}\n" for s in scores)
    with open(state_path, "wb") as fh:
        pickle.dump(predictor, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
