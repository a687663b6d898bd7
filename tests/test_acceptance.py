"""Acceptance suite: one test per release criterion.

Each test prints a ``[acceptance] criterion N: PASS/FAIL`` line (visible
with ``pytest -s``) before asserting, so a full run reads as a checklist.

Criterion 1 feeds the six fully-listed feedback-phase teams' AUCs into the
ranking module and asserts the published per-dataset ranks and average
ranks verbatim.  The published board, however, ranked those teams against
the full ~61-team field: on dataset C the published ranks 6 and 10 count
teams that the table does not list, so no rank function over the six-team
input can emit them (a six-entry field cannot contain rank 10, and the 4.4
average needs it).  The test states the criterion faithfully and is
expected to fail on exactly those assertions; see
tests/test_ranking.py::test_reconstructed_field_reproduces_published_top6
for the same reproduction run against a field with the missing slot
restored, which passes.
"""

import json
import sys
import time

import numpy as np
import pytest

from driftbench.baseline import (
    BaselineConfig,
    BaselinePredictor,
    extend,
    fit_initial,
    log_loss,
    sigmoid,
)
from driftbench.cli import main as cli_main
from driftbench.data import plan_blocks
from driftbench.harness import SubprocessPredictor, run_lifelong
from driftbench.metrics import auc
from driftbench.ranking import SubmissionEntry, build_leaderboard
from driftbench.synth import DriftGenSpec, generate_drift_stream

from published_results import DATASETS, FEEDBACK_TOP6, FINAL_ROWS
from test_harness import JOURNAL_SCRIPT, RecordingPredictor, indexed_dataset, script_predictor
from test_metrics import pairwise_auc

DESK = dict(n_rows=2500, n_cat=3, n_num=4, n_mvc=1, n_time=1, n_blocks=10,
            cat_cardinality=20, power_exponent=1.3)
DESK_CONFIG = dict(initial_trees=30, trees_per_block=8, max_depth=3,
                   learning_rate=0.2)


def _report(num: int, passed: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {num}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_published_feedback_board():
    t0 = time.perf_counter()
    entries = [
        SubmissionEntry(team, "Py3", dict(zip(DATASETS, aucs)), duration)
        for team, (aucs, _ranks, _avg, duration) in FEEDBACK_TOP6.items()
    ]
    board = build_leaderboard(entries, DATASETS)
    rows = {r.team: r for r in board.rows}

    mismatches = []
    for team, (_aucs, published_ranks, published_avg, _d) in FEEDBACK_TOP6.items():
        if rows[team].dataset_ranks != published_ranks:
            mismatches.append(
                f"{team}: ranks {rows[team].dataset_ranks} != published {published_ranks}")
        if abs(rows[team].average_rank - published_avg) > 0:
            mismatches.append(
                f"{team}: avg rank {rows[team].average_rank} != published {published_avg}")
    order = [r.team for r in board.rows]
    expected_order = list(FEEDBACK_TOP6)  # QQSong ahead of tnguyen on duration
    if order != expected_order:
        mismatches.append(f"board order {order} != published {expected_order}")
    runtime = time.perf_counter() - t0

    _report(1, not mismatches and runtime < 1.0,
            mismatches[0] if mismatches else f"{runtime:.3f}s")
    assert runtime < 1.0
    assert not mismatches, (
        "published ranks not reproduced from the six-team input "
        "(the published board counted unlisted teams): " + "; ".join(mismatches)
    )


def test_criterion_2_final_board_duration_tiebreak():
    t0 = time.perf_counter()
    for team in ("GrandMasters", "Ml-Intelligence"):
        _bundle, ranks, avg, _dur = FINAL_ROWS[team]
        assert sum(ranks) / len(ranks) == pytest.approx(avg)

    better = [SubmissionEntry(t, "Py3", dict(zip(DATASETS, a)), d) for t, a, d in [
        ("autodidact.ai", (0.95,) * 5, 5882.13),
        ("Meta_Learners", (0.90,) * 5, 8700.47),
    ]]
    tied = [SubmissionEntry(t, "Py3", dict(zip(DATASETS, (0.80,) * 5)), d) for t, d in [
        ("Ml-Intelligence", 9426.68),
        ("GrandMasters", 7912.14),
    ]]
    worse = [SubmissionEntry("linc326", "Py3", dict(zip(DATASETS, (0.70,) * 5)), 8843.15)]
    board = build_leaderboard(better + tied + worse, DATASETS)
    placed = {r.team: r.position for r in board.rows}
    runtime = time.perf_counter() - t0

    ok = placed["GrandMasters"] == 3 and placed["Ml-Intelligence"] == 4
    _report(2, ok and runtime < 1.0, f"{runtime:.3f}s")
    assert ok
    assert runtime < 1.0


def test_criterion_3_auc_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2218)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[rng.integers(0, n)] = 1 - labels[0]
        # decimals=0..2 injects plenty of ties
        scores = np.round(rng.normal(size=n), decimals=int(rng.integers(0, 3)))
        worst = max(worst, abs(auc(labels, scores) - pairwise_auc(labels, scores)))
    runtime = time.perf_counter() - t0
    ok = worst < 1e-12 and runtime < 5.0
    _report(3, ok, f"max deviation {worst:.2e}, {runtime:.2f}s")
    assert worst < 1e-12
    assert runtime < 5.0


def test_criterion_4_label_reveal_monotonicity(tmp_path):
    t0 = time.perf_counter()
    ds = indexed_dataset(200)
    ranges = plan_blocks(200, 10)

    in_process = RecordingPredictor()
    run_lifelong(ds, 10, in_process, budget_seconds=60)
    revealed = []
    for k, (rows, _labels) in enumerate(in_process.learned, start=1):
        revealed.extend(rows)
        assert tuple(revealed) == ds.rows[: ranges[k - 1][1]]
        assert in_process.predicted[k - 1] == ds.rows[slice(*ranges[k])]

    external = script_predictor(tmp_path, JOURNAL_SCRIPT, "journal")
    trace = run_lifelong(ds, 10, external, budget_seconds=60)
    assert trace.outcome == "completed"
    journal = [json.loads(line) for line in
               (tmp_path / "journal_work" / "journal.jsonl").read_text().splitlines()]
    assert len(journal) == 9
    seen = []
    for entry in journal:
        k = entry["step"]
        lo, hi = ranges[k - 1]
        assert entry["train_ids"] == [str(i) for i in range(lo, hi)]
        seen.extend(entry["train_ids"])
        assert seen == [str(i) for i in range(hi)]
        assert entry["test_ids"] == [str(i) for i in range(*ranges[k])]

    runtime = time.perf_counter() - t0
    _report(4, runtime < 10.0, f"both transports certified, {runtime:.2f}s")
    assert runtime < 10.0


def test_criterion_5_budget_enforcement(tmp_path):
    budget = 3.0
    script = tmp_path / "sleeper.py"
    script.write_text("import time\ntime.sleep(60)\n")
    predictor = SubprocessPredictor([sys.executable, str(script)],
                                    workdir=tmp_path / "work")
    ds = indexed_dataset(30)
    t0 = time.perf_counter()
    trace = run_lifelong(ds, 3, predictor, budget_seconds=budget)
    wall = time.perf_counter() - t0

    ok = (trace.outcome == "timed-out"
          and wall < budget + 2.0
          and wall < 2 * budget
          and trace.mean_auc == 0.0
          and trace.disqualified)
    _report(5, ok, f"killed {wall - budget:+.2f}s after expiry")
    assert trace.outcome == "timed-out"
    assert wall < budget + 2.0, "kill happened more than 2s after expiry"
    assert wall < 2 * budget
    assert trace.mean_auc == 0.0 and trace.disqualified


def _lifelong_mean_auc(predictor, spec, post_drift_only=False):
    ds = generate_drift_stream(spec)
    trace = run_lifelong(ds, spec.n_blocks, predictor, budget_seconds=600)
    assert trace.outcome == "completed"
    blocks = trace.steps
    if post_drift_only:
        blocks = [s for s in blocks if s.step >= spec.n_blocks // 2]
    return float(np.mean([s.auc for s in blocks]))


def test_criterion_6_baseline_competence():
    t0 = time.perf_counter()
    seeds = range(10)

    margins_over_constant = []
    for seed in seeds:
        spec = DriftGenSpec(drift="none", seed=seed, **DESK)
        predictor = BaselinePredictor(BaselineConfig(seed=seed, **DESK_CONFIG))
        margins_over_constant.append(_lifelong_mean_auc(predictor, spec) - 0.5)
    no_drift_margin = float(np.mean(margins_over_constant))

    recovery_margins = []
    for seed in seeds:
        spec = DriftGenSpec(drift="abrupt", drift_magnitude=2.5, seed=seed, **DESK)
        sliding = BaselinePredictor(BaselineConfig(
            seed=seed, policy="sliding-window", window_blocks=2, **DESK_CONFIG))
        frozen = BaselinePredictor(BaselineConfig(seed=seed, **DESK_CONFIG),
                                   freeze_after_initial=True)
        recovery_margins.append(
            _lifelong_mean_auc(sliding, spec, post_drift_only=True)
            - _lifelong_mean_auc(frozen, spec, post_drift_only=True))
    recovery_margin = float(np.mean(recovery_margins))

    runtime = time.perf_counter() - t0
    ok = no_drift_margin >= 0.15 and recovery_margin >= 0.05 and runtime < 300
    _report(6, ok, f"+{no_drift_margin:.3f} over constant, "
                   f"+{recovery_margin:.3f} sliding vs frozen, {runtime:.1f}s")
    assert no_drift_margin >= 0.15
    assert recovery_margin >= 0.05
    assert runtime < 300


def test_criterion_7_numerical_checks():
    rng = np.random.default_rng(31)

    # gradient of the logistic loss vs central finite differences
    y = rng.integers(0, 2, size=80).astype(np.float64)
    margin = rng.normal(scale=2.0, size=80)
    eps = 1e-5
    worst = 0.0
    for i in range(80):
        up, down = margin.copy(), margin.copy()
        up[i] += eps
        down[i] -= eps
        numeric = (log_loss(y[i:i + 1], sigmoid(up[i:i + 1]))
                   - log_loss(y[i:i + 1], sigmoid(down[i:i + 1]))) / (2 * eps)
        analytic = -(y[i] - sigmoid(margin[i:i + 1])[0])
        worst = max(worst, abs(numeric - analytic))

    # loss monotonicity and the ensemble growth law on a real fit
    X = rng.normal(size=(600, 5))
    latent = X @ rng.normal(size=5)
    yb = (latent + rng.normal(scale=0.5, size=600) > 0).astype(np.float64)
    cfg = BaselineConfig(initial_trees=20, trees_per_block=7, max_depth=3,
                         learning_rate=0.2, seed=2)
    ens = fit_initial(X[:300], yb[:300], cfg)
    ens = extend(ens, X[300:450], yb[300:450], cfg)
    ens = extend(ens, X[450:], yb[450:], cfg)
    monotone = all(np.all(np.diff(curve) <= 1e-9) for curve in ens.loss_history)
    size_law = ens.n_trees == 20 + 2 * 7

    ok = worst < 1e-6 and monotone and size_law
    _report(7, ok, f"gradient deviation {worst:.2e}")
    assert worst < 1e-6
    assert monotone
    assert size_law == True  # noqa: E712 -- exact law, not truthiness


MASKED_KEY_PARTS = ("elapsed", "duration")


def _masked(obj):
    if isinstance(obj, dict):
        return {
            k: ("<time>" if any(part in k for part in MASKED_KEY_PARTS)
                else _masked(v))
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_masked(v) for v in obj]
    return obj


def _masked_csv(text: str) -> str:
    lines = text.splitlines()
    if not lines or not lines[0].endswith(",duration"):
        return text
    masked = []
    for line in lines:
        cells = line.split(",")
        cells[-1] = "<time>"
        masked.append(",".join(cells))
    return "\n".join(masked)


def _pipeline(root, seed):
    config = {
        "seed": seed,
        "n_blocks": 6,
        "data_dir": "data",
        "output_dir": "out",
        "datasets": [
            {"id": "d0", "phase": "feedback", "rows": 240, "cat": 2, "num": 2,
             "mvc": 1, "time": 1, "budget_seconds": 60.0},
            {"id": "d1", "phase": "feedback", "rows": 240, "cat": 2, "num": 2,
             "mvc": 1, "time": 1, "budget_seconds": 60.0,
             "drift": "gradual", "drift_magnitude": 1.0},
        ],
        "predictors": [
            {"name": "baseline", "type": "baseline", "bundle": "env-a",
             "options": {"initial_trees": 6, "trees_per_block": 2,
                         "max_depth": 2, "learning_rate": 0.3}},
            {"name": "echo", "type": "command", "bundle": "env-b",
             "command": [sys.executable, "-m", "driftbench.echo_predictor"]},
        ],
    }
    root.mkdir(parents=True, exist_ok=True)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    assert cli_main(["generate", "--config", str(config_path)]) == 0
    assert cli_main(["evaluate", "--config", str(config_path),
                     "--phase", "feedback", "--predictor", "baseline",
                     "--predictor", "echo"]) == 0
    assert cli_main(["leaderboard", str(root / "out" / "baseline"),
                     str(root / "out" / "echo"), "--merge",
                     "--out", str(root / "out")]) == 0


def test_criterion_8_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    _pipeline(tmp_path / "run1", seed=2024)
    _pipeline(tmp_path / "run2", seed=2024)

    diffs = []
    files1 = sorted((tmp_path / "run1").rglob("*"))
    rel = [p.relative_to(tmp_path / "run1") for p in files1 if p.is_file()]
    rel2 = sorted(p.relative_to(tmp_path / "run2")
                  for p in (tmp_path / "run2").rglob("*") if p.is_file())
    assert sorted(rel) == rel2
    for r in rel:
        if "work" in r.parts:  # scratch files of external predictors
            continue
        a, b = (tmp_path / "run1" / r), (tmp_path / "run2" / r)
        if r.suffix == ".json":
            same = _masked(json.loads(a.read_text())) == _masked(json.loads(b.read_text()))
        elif r.suffix == ".csv" and r.name.startswith("leaderboard"):
            same = _masked_csv(a.read_text()) == _masked_csv(b.read_text())
        else:
            same = a.read_bytes() == b.read_bytes()
        if not same:
            diffs.append(str(r))
    runtime = time.perf_counter() - t0

    ok = not diffs and runtime < 300
    _report(8, ok, f"{len(rel)} files compared, {runtime:.1f}s")
    assert not diffs, f"outputs differ: {diffs}"
    assert runtime < 300
