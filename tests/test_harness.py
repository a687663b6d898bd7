import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from driftbench.baseline import BaselinePredictor
from driftbench.data import (BlockPlanError, ChronoDataset, FeatureKind, FeatureSchema, plan_blocks,
                             save_dataset)
from driftbench.harness import (
    ConstantPredictor,
    DatasetRef,
    PredictorAdapter,
    SubprocessPredictor,
    run_lifelong,
    run_suite,
)
from driftbench.synth import DriftGenSpec, generate_drift_stream

from test_data import all_rows, crlf_sourced, oracle_data_lines, rows_of

SCHEMA = FeatureSchema((("idx", FeatureKind.NUMERICAL),), "y")


def indexed_dataset(n=30):
    """Rows carry their own index so tests can identify blocks exactly."""
    rows = tuple((str(i),) for i in range(n))
    labels = np.arange(n) % 2
    return ChronoDataset.from_rows(SCHEMA, rows, labels, provenance="indexed")


class RecordingPredictor:
    """Instrumented adapter capturing every learn/predict payload: each
    block's rows and labels."""

    name = "recorder"

    def __init__(self, score_fn=None):
        self.learned: list[tuple] = []              # (rows, labels) of each revealed block
        self.predicted: list[tuple] = []
        self.predicted_labels: list = []            # each scored block's labels
        self.remaining: list[float] = []
        self.score_fn = score_fn if score_fn else lambda block: np.full(len(block), 0.5)

    def learn(self, block, remaining_budget_seconds):
        self.learned.append((rows_of(block), tuple(block.labels.tolist())))
        self.remaining.append(remaining_budget_seconds)

    def predict(self, block):
        self.predicted.append(rows_of(block))
        self.predicted_labels.append(block.labels)
        return self.score_fn(block)


def test_protocol_reveals_blocks_in_order():
    ds = indexed_dataset(30)
    pred = RecordingPredictor()
    trace = run_lifelong(ds, 3, pred, budget_seconds=60)
    assert trace.outcome == "completed"
    rows = all_rows(ds)
    assert [r for r, _ in pred.learned] == [rows[0:10], rows[10:20]]
    assert pred.predicted == [rows[10:20], rows[20:30]]
    # A revealed block carries its own rows' labels; a scored one carries
    # none, so an in-process predictor cannot read the labels it is scored by.
    assert [labels for _, labels in pred.learned] == [tuple(ds.labels[0:10].tolist()),
                                                      tuple(ds.labels[10:20].tolist())]
    assert pred.predicted_labels == [None, None]
    assert [s.step for s in trace.steps] == [1, 2]
    assert [s.trained_rows for s in trace.steps] == [10, 20]


@pytest.mark.parametrize("adapter", [ConstantPredictor, SubprocessPredictor, BaselinePredictor])
def test_adapters_take_the_contracts_parameters(adapter):
    for method in ("learn", "predict"):
        want = inspect.signature(getattr(PredictorAdapter, method)).parameters
        got = inspect.signature(getattr(adapter, method)).parameters
        assert list(got) == list(want), f"{adapter.__name__}.{method}"


def test_label_reveal_monotonicity_certified_for_every_step():
    # 23 rows in 4 blocks cuts unevenly: (0, 6), (6, 12), (12, 18), (18, 23).
    for n_rows, n_blocks in ((100, 10), (23, 4)):
        ds = indexed_dataset(n_rows)
        ranges = plan_blocks(n_rows, n_blocks)
        pred = RecordingPredictor()
        trace = run_lifelong(ds, n_blocks, pred, budget_seconds=60)
        assert len(pred.learned) == len(pred.predicted) == n_blocks - 1
        revealed: list[tuple] = []
        every = all_rows(ds)
        for k, (rows, labels) in enumerate(pred.learned, start=1):
            revealed.extend(rows)
            lo, hi = ranges[k - 1]
            assert rows == every[lo:hi]
            # everything revealed so far is exactly blocks 0..k-1, nothing more
            assert tuple(revealed) == every[: hi]
            assert pred.predicted[k - 1] == every[slice(*ranges[k])]
            assert trace.steps[k - 1].trained_rows == hi


def test_oracle_predictor_scores_one_everywhere():
    ds = indexed_dataset(30)
    pred = RecordingPredictor(
        score_fn=lambda block: np.array([float(ds.labels[int(c)]) for c in block.columns[0]]))
    trace = run_lifelong(ds, 3, pred, budget_seconds=60)
    assert [s.auc for s in trace.steps] == [1.0, 1.0]
    assert trace.mean_auc == 1.0


def test_single_class_block_gets_half_and_flag():
    rows = tuple((str(i),) for i in range(30))
    labels = np.array([0, 1] * 10 + [1] * 10)  # last block all positive
    ds = ChronoDataset.from_rows(SCHEMA, rows, labels)
    trace = run_lifelong(ds, 3, RecordingPredictor(), budget_seconds=60)
    assert trace.steps[-1].single_class
    assert trace.steps[-1].auc == 0.5
    assert not trace.steps[0].single_class


def test_plan_with_one_block_is_rejected():
    with pytest.raises(ValueError, match="need at least 2 blocks, got 1"):
        run_lifelong(indexed_dataset(10), 1, RecordingPredictor(), budget_seconds=60)


def test_more_blocks_than_rows_is_rejected_before_learn():
    pred = RecordingPredictor()
    with pytest.raises(BlockPlanError, match="cannot cut 10 rows into 11 non-empty blocks"):
        run_lifelong(indexed_dataset(10), 11, pred, budget_seconds=60)
    assert pred.learned == [] and pred.predicted == []


class SleepyPredictor(RecordingPredictor):
    def __init__(self, sleep_at_step=1, sleep_seconds=1.0):
        super().__init__()
        self.sleep_at_step = sleep_at_step
        self.sleep_seconds = sleep_seconds
        self._step = 0

    def learn(self, block, remaining_budget_seconds):
        self._step += 1
        if self._step == self.sleep_at_step:
            time.sleep(self.sleep_seconds)
        super().learn(block, remaining_budget_seconds)


def test_overrunning_predictor_is_timed_out_and_zeroed():
    ds = indexed_dataset(30)
    pred = SleepyPredictor(sleep_at_step=1, sleep_seconds=0.7)
    trace = run_lifelong(ds, 3, pred, budget_seconds=0.3)
    assert trace.outcome == "timed-out"
    assert trace.error
    assert trace.steps == ()
    assert trace.disqualified and trace.mean_auc == 0.0


class CrashingPredictor(RecordingPredictor):
    def predict(self, block):
        raise RuntimeError("boom")


class ShortPredictor(RecordingPredictor):
    def predict(self, block):
        return np.full(len(block) - 1, 0.5)


class NaNPredictor(RecordingPredictor):
    def predict(self, block):
        out = np.full(len(block), 0.5)
        out[0] = np.nan
        return out


@pytest.mark.parametrize("cls", [CrashingPredictor, ShortPredictor, NaNPredictor])
def test_bad_predictors_score_zero(cls):
    ds = indexed_dataset(30)
    trace = run_lifelong(ds, 3, cls(), budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.error
    assert trace.disqualified and trace.mean_auc == 0.0


class SlowCrashPredictor(RecordingPredictor):
    def predict(self, block):
        time.sleep(0.2)
        raise RuntimeError("boom")


def test_call_that_raises_is_billed_and_names_its_step():
    trace = run_lifelong(indexed_dataset(30), 3, SlowCrashPredictor(),
                         budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.total_elapsed_seconds >= 0.2
    assert trace.error == "step 1: RuntimeError: boom"


class SlowShortPredictor(RecordingPredictor):
    def predict(self, block):
        time.sleep(0.3)
        return np.full(len(block) - 1, 0.5)


def test_overrun_is_checked_before_the_predictions():
    trace = run_lifelong(indexed_dataset(30), 3, SlowShortPredictor(),
                         budget_seconds=0.2)
    assert trace.outcome == "timed-out"
    assert trace.error.startswith("step 1: predict brought the billed time to ")


class StagingPredictor(RecordingPredictor):
    """Burns wall time but credits it as unbilled staging."""

    def __init__(self, stage_seconds):
        super().__init__()
        self.unbilled_seconds = 0.0
        self.stage_seconds = stage_seconds

    def learn(self, block, remaining_budget_seconds):
        t0 = time.perf_counter()
        time.sleep(self.stage_seconds)
        self.unbilled_seconds += time.perf_counter() - t0
        super().learn(block, remaining_budget_seconds)


def test_unbilled_staging_time_is_not_charged():
    ds = indexed_dataset(30)
    pred = StagingPredictor(stage_seconds=0.2)
    trace = run_lifelong(ds, 3, pred, budget_seconds=0.15)
    assert trace.outcome == "completed"
    assert trace.total_elapsed_seconds < 0.15


def test_deterministic_predictor_yields_identical_traces():
    spec = DriftGenSpec(n_rows=400, n_cat=2, n_num=2, n_mvc=1, n_time=1,
                        n_blocks=5, drift="gradual", drift_magnitude=1.0, seed=3)
    ds = generate_drift_stream(spec)
    from driftbench.baseline import BaselineConfig, BaselinePredictor
    cfg = BaselineConfig(initial_trees=8, trees_per_block=3, max_depth=2,
                         learning_rate=0.3, seed=1)
    traces = [
        run_lifelong(ds, 5, BaselinePredictor(cfg), budget_seconds=60)
        for _ in range(2)
    ]
    a, b = traces
    assert a.outcome == b.outcome
    assert [(s.step, s.trained_rows, s.auc, s.single_class) for s in a.steps] == \
           [(s.step, s.trained_rows, s.auc, s.single_class) for s in b.steps]


# ---------------------------------------------------------------------------
# suites


def suite_on_disk(tmp_path, n_datasets=3, rows=200, budget=60.0):
    refs = []
    for i in range(n_datasets):
        spec = DriftGenSpec(n_rows=rows, n_cat=2, n_num=2, n_mvc=0, n_time=1,
                            n_blocks=5, seed=i, dataset_id=f"ds{i}")
        ds = generate_drift_stream(spec)
        data = tmp_path / f"ds{i}.csv"
        schema = tmp_path / f"ds{i}.schema.csv"
        save_dataset(ds, data, schema)
        refs.append(DatasetRef(f"ds{i}", data, schema, budget))
    return refs


def test_suite_runs_every_dataset(tmp_path):
    refs = suite_on_disk(tmp_path)
    scores = run_suite(refs, 5, lambda ref: ConstantPredictor())
    assert [s.dataset_id for s in scores] == ["ds0", "ds1", "ds2"]
    assert all(not s.disqualified for s in scores)
    assert all(s.mean_auc == 0.5 for s in scores)


def test_empty_suite():
    assert run_suite([], 10, lambda ref: ConstantPredictor()) == []


# Frozen from the first smoke run of this exact configuration; any drift
# here means the learner, generator, or protocol changed behavior.
SUITE_PINS = {
    "suite0": 0.7802495457009881,
    "suite1": 0.7562959745776142,
    "suite2": 0.5290911386658995,
    "suite3": 0.5077867759548984,
    "suite4": 0.7313108765544795,
}


def test_baseline_suite_regression_pin(tmp_path):
    refs = []
    for i, (drift, magnitude) in enumerate([("none", 0.0), ("gradual", 0.8),
                                            ("abrupt", 2.0), ("gradual", 1.5),
                                            ("none", 0.0)]):
        spec = DriftGenSpec(n_rows=400, n_cat=2, n_num=3, n_mvc=1, n_time=1,
                            n_blocks=8, drift=drift, drift_magnitude=magnitude,
                            seed=100 + i, dataset_id=f"suite{i}")
        data = tmp_path / f"{i}.csv"
        schema = tmp_path / f"{i}.schema.csv"
        save_dataset(generate_drift_stream(spec), data, schema)
        refs.append(DatasetRef(f"suite{i}", data, schema, 120.0))

    def factory(ref):
        from driftbench.baseline import BaselineConfig, BaselinePredictor
        return BaselinePredictor(BaselineConfig(
            initial_trees=12, trees_per_block=4, max_depth=2,
            learning_rate=0.3, seed=42))

    scores = run_suite(refs, 8, factory)
    assert len(scores) == 5
    assert all(not s.disqualified for s in scores)
    for s in scores:
        assert s.mean_auc == pytest.approx(SUITE_PINS[s.dataset_id], abs=1e-9)


def test_suite_isolates_failures(tmp_path):
    refs = suite_on_disk(tmp_path, budget=0.5)

    def factory(ref):
        if ref.dataset_id == "ds1":
            return SleepyPredictor(sleep_at_step=1, sleep_seconds=1.0)
        return ConstantPredictor()

    scores = run_suite(refs, 5, factory)
    assert len(scores) == 3
    assert [s.disqualified for s in scores] == [False, True, False]


def test_suite_isolates_missing_files(tmp_path):
    gone = DatasetRef("gone", tmp_path / "missing.csv", tmp_path / "missing.schema.csv", 60.0)
    refs = [gone, *suite_on_disk(tmp_path, n_datasets=2)]
    scores = run_suite(refs, 5, lambda ref: ConstantPredictor())
    assert [s.disqualified for s in scores] == [True, False, False]


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        DatasetRef("d", "x", "y", 0.0)


def test_infinite_budget_is_rejected():
    with pytest.raises(ValueError, match="budget_seconds must be a finite number > 0, got inf"):
        DatasetRef("d", "x", "y", float("inf"))
    with pytest.raises(ValueError, match="budget_seconds must be a finite number > 0, got inf"):
        run_lifelong(indexed_dataset(10), 2, RecordingPredictor(),
                     budget_seconds=float("inf"))


@pytest.mark.parametrize("budget", ["30", True, None])
def test_budget_that_is_not_a_number_is_a_type_error(budget):
    with pytest.raises(TypeError, match=f"budget_seconds must be a number, got {budget!r}"):
        DatasetRef("d", "x", "y", budget)


# ---------------------------------------------------------------------------
# subprocess protocol

# Shared by the request-loop programs below: ``score(request, n)`` writes n
# scores of 0.5 (default: one per test row) and answers the request by
# echoing its token.  Each program leaves its pid in the work directory.
PRELUDE = """\
import json, os, sys, time
workdir = sys.argv[sys.argv.index("--workdir") + 1]
with open(os.path.join(workdir, "pid"), "w") as fh:
    fh.write(str(os.getpid()))

def score(request, n=None):
    test = open(request["test"]).read().splitlines()
    with open(request["pred_out"], "w") as fh:
        fh.write("0.5\\n" * (len(test) - 1 if n is None else n))
    print(json.dumps({"token": request["token"]}), flush=True)
"""

JOURNAL_SCRIPT = PRELUDE + """
for line in sys.stdin:
    request = json.loads(line)
    train = open(request["train"]).read().splitlines()
    test = open(request["test"]).read().splitlines()
    entry = {
        "step": request["step"],
        "keys": list(request),
        "token": request["token"],
        "pid": os.getpid(),
        "remaining_budget": request["remaining_budget"],
        "train_ids": [row.split(",")[0] for row in train[1:]],
        "test_ids": [row.split(",")[0] for row in test[1:]],
    }
    with open(os.path.join(workdir, "journal.jsonl"), "a") as fh:
        fh.write(json.dumps(entry) + "\\n")
    score(request)
"""

SLEEP_SCRIPT = """\
import sys, time
time.sleep(30)
"""

SHORT_SCRIPT = PRELUDE + """
for line in sys.stdin:
    request = json.loads(line)
    score(request, len(open(request["test"]).read().splitlines()) - 2)
"""

FAIL_SCRIPT = "import sys; sys.exit(3)\n"


def script_predictor(tmp_path, source, name):
    script = tmp_path / f"{name}.py"
    script.write_text(source)
    return SubprocessPredictor([sys.executable, str(script)],
                               workdir=tmp_path / f"{name}_work")


def test_echo_predictor_scores_half(tmp_path):
    ds = indexed_dataset(40)
    pred = SubprocessPredictor([sys.executable, "-m", "driftbench.echo_predictor"],
                               workdir=tmp_path / "echo")
    trace = run_lifelong(ds, 4, pred, budget_seconds=60)
    assert trace.outcome == "completed"
    assert [s.auc for s in trace.steps] == [0.5, 0.5, 0.5]
    # Saying it is done by closing stdout leaves the final flush no error to write.
    assert (tmp_path / "echo" / "stderr.txt").read_bytes() == b""


def test_subprocess_sees_exactly_the_revealed_blocks(tmp_path):
    ds = indexed_dataset(100)
    ranges = plan_blocks(100, 10)
    pred = script_predictor(tmp_path, JOURNAL_SCRIPT, "journal")
    trace = run_lifelong(ds, 10, pred, budget_seconds=60)
    assert trace.outcome == "completed"
    journal = [json.loads(line) for line in
               (tmp_path / "journal_work" / "journal.jsonl").read_text().splitlines()]
    assert [e["step"] for e in journal] == list(range(1, 10))
    assert len({e["pid"] for e in journal}) == 1  # one child answered every step
    budgets = [e["remaining_budget"] for e in journal]
    assert budgets == sorted(budgets, reverse=True) and budgets[0] <= 60
    for e in journal:
        k = e["step"]
        lo, hi = ranges[k - 1]
        assert e["train_ids"] == [str(i) for i in range(lo, hi)]
        t_lo, t_hi = ranges[k]
        assert e["test_ids"] == [str(i) for i in range(t_lo, t_hi)]


@pytest.mark.parametrize("source", ["generated", "crlf-file"])
def test_staged_step_files_are_the_row_encoders_bytes(tmp_path, source):
    # Each step's train and test files are the header and the block's
    # bytes, as the row encoder wrote them before blocks stayed bytes.
    ds = generate_drift_stream(DriftGenSpec(n_rows=240, n_cat=2, n_num=2, n_mvc=1, n_time=1,
                                            n_blocks=4, seed=3))
    if source == "crlf-file":
        ds = crlf_sourced(ds, tmp_path)
    pred = SubprocessPredictor([sys.executable, "-m", "driftbench.echo_predictor"],
                               workdir=tmp_path / "echo")
    assert run_lifelong(ds, 4, pred, budget_seconds=60).outcome == "completed"
    rows, labels = all_rows(ds), ds.labels.tolist()
    ranges = plan_blocks(len(ds), 4)
    for k in range(1, 4):
        (lo, hi), (t_lo, t_hi) = ranges[k - 1], ranges[k]
        train = b"".join(oracle_data_lines(ds.schema, rows[lo:hi], labels[lo:hi]))
        test = b"".join(oracle_data_lines(ds.schema, rows[t_lo:t_hi], None))
        assert (tmp_path / "echo" / f"train_{k:03d}.csv").read_bytes() == train
        assert (tmp_path / "echo" / f"test_{k:03d}.csv").read_bytes() == test


def test_sleeping_subprocess_is_killed_at_budget(tmp_path):
    ds = indexed_dataset(30)
    pred = script_predictor(tmp_path, SLEEP_SCRIPT, "sleeper")
    t0 = time.perf_counter()
    trace = run_lifelong(ds, 3, pred, budget_seconds=1.0)
    wall = time.perf_counter() - t0
    assert trace.outcome == "timed-out"
    assert wall < 3.0  # killed within 2s of expiry
    assert trace.disqualified and trace.mean_auc == 0.0


# The child leaves a grandchild holding stderr: one that stays in the
# process group, and one that daemonizes out of it.
DAEMON_SCRIPT = """\
import os, time
if os.fork() == 0:
    os.setsid()
time.sleep(3)
"""


@pytest.mark.parametrize("command", [
    ["sh", "-c", "sleep 4; true"],
    [sys.executable, "-c", DAEMON_SCRIPT],
], ids=["grandchild", "daemon"])
def test_budget_kill_does_not_wait_for_grandchildren(tmp_path, command):
    ds = indexed_dataset(30)
    pred = SubprocessPredictor(command, workdir=tmp_path / "work")
    t0 = time.perf_counter()
    trace = run_lifelong(ds, 3, pred, budget_seconds=0.5)
    wall = time.perf_counter() - t0
    assert trace.outcome == "timed-out"
    assert wall < 2.0
    assert trace.total_elapsed_seconds < 2.0


def test_budget_kill_is_billed_up_to_the_kill(tmp_path):
    # The daemon holds the answer pipe past the kill; the harness does not
    # wait for it.
    pred = SubprocessPredictor([sys.executable, "-c", DAEMON_SCRIPT], workdir=tmp_path / "work")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=0.5)
    assert trace.outcome == "timed-out"
    assert trace.error.startswith("step 1: killed after ")
    assert 0.5 <= trace.total_elapsed_seconds < 0.9


def test_short_predictions_are_a_predictor_error(tmp_path):
    ds = indexed_dataset(30)
    pred = script_predictor(tmp_path, SHORT_SCRIPT, "short")
    trace = run_lifelong(ds, 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert "predictions" in trace.error


def test_predictions_file_is_read_one_line_past_the_block(tmp_path):
    # Reading stops at the eleventh prediction for a 10-row block, so the
    # line after it is never parsed, however long the file is.
    script = PRELUDE + """
for request in sys.stdin:
    request = json.loads(request)
    with open(request["pred_out"], "w") as fh:
        fh.write("0.5\\n\\n" * 11 + "garbage\\n")
    print(json.dumps({"token": request["token"]}), flush=True)
"""
    pred = script_predictor(tmp_path, script, "long_file")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.error == "step 1: PredictorError: predictions file holds more than 10 predictions"


def test_nonzero_exit_is_a_predictor_error(tmp_path):
    ds = indexed_dataset(30)
    pred = script_predictor(tmp_path, FAIL_SCRIPT, "fail")
    trace = run_lifelong(ds, 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert "exit code 3" in trace.error


FLOOD_SCRIPT = """\
import sys
while True:
    sys.stdout.buffer.write(b"x" * (1 << 20))
"""


def test_stdout_flood_is_a_predictor_error_at_once(tmp_path):
    # A child that writes without a newline is stopped at the answer cap,
    # not buffered until its budget runs out.
    pred = script_predictor(tmp_path, FLOOD_SCRIPT, "flood")
    t0 = time.perf_counter()
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=10.0)
    wall = time.perf_counter() - t0
    assert trace.outcome == "predictor-error"
    assert trace.error == "step 1: PredictorError: answer line longer than 65536 bytes"
    assert wall < 5.0


SLOW_FAIL_SCRIPT = "import sys, time; time.sleep(0.3); sys.exit(3)\n"


def test_failing_subprocess_is_billed(tmp_path):
    pred = script_predictor(tmp_path, SLOW_FAIL_SCRIPT, "slowfail")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.total_elapsed_seconds >= 0.3
    assert trace.error == "step 1: PredictorError: exit code 3"


def test_reference_predictor_speaks_the_protocol(tmp_path, monkeypatch):
    launched = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        launched.append(proc.pid)
        return proc

    monkeypatch.setattr(subprocess, "Popen", popen)
    monkeypatch.setenv(
        "DRIFTBENCH_BASELINE_CONFIG",
        '{"initial_trees": 6, "trees_per_block": 2, "max_depth": 2, "learning_rate": 0.3}',
    )
    spec = DriftGenSpec(n_rows=300, n_cat=2, n_num=2, n_mvc=1, n_time=1,
                        n_blocks=5, seed=0)
    ds = generate_drift_stream(spec)
    pred = SubprocessPredictor([sys.executable, "-m", "driftbench.reference_predictor"],
                               workdir=tmp_path / "ref")
    trace = run_lifelong(ds, 5, pred, budget_seconds=60)
    assert trace.outcome == "completed"
    assert len(trace.steps) == 4
    assert len(launched) == 1  # one child kept its model for all four steps


def test_reference_predictor_rejects_a_mistyped_option(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTBENCH_BASELINE_CONFIG", '{"max_depth": 2.5}')
    ds = generate_drift_stream(DriftGenSpec(n_rows=60, n_cat=1, n_num=1, n_blocks=3, seed=0))
    pred = SubprocessPredictor([sys.executable, "-m", "driftbench.reference_predictor"],
                               workdir=tmp_path / "ref")
    trace = run_lifelong(ds, 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert "max_depth must be an integer, got 2.5" in trace.error


def test_reference_predictor_rejects_a_negative_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTBENCH_BASELINE_CONFIG", '{"seed": -1}')
    ds = generate_drift_stream(DriftGenSpec(n_rows=60, n_cat=1, n_num=1, n_blocks=3, seed=0))
    pred = SubprocessPredictor([sys.executable, "-m", "driftbench.reference_predictor"],
                               workdir=tmp_path / "ref")
    trace = run_lifelong(ds, 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert "seed must be >= 0, got -1" in trace.error


@pytest.mark.parametrize("raw, message", [
    ("[1, 2]", "DRIFTBENCH_BASELINE_CONFIG must be a JSON object, got list"),
    ("nope", "DRIFTBENCH_BASELINE_CONFIG is not valid JSON "
             "(Expecting value: line 1 column 1 (char 0))"),
], ids=["list", "not-json"])
def test_reference_predictor_rejects_a_config_that_is_not_an_object(tmp_path, monkeypatch,
                                                                    raw, message):
    monkeypatch.setenv("DRIFTBENCH_BASELINE_CONFIG", raw)
    ds = generate_drift_stream(DriftGenSpec(n_rows=60, n_cat=1, n_num=1, n_blocks=3, seed=0))
    pred = SubprocessPredictor([sys.executable, "-m", "driftbench.reference_predictor"],
                               workdir=tmp_path / "ref")
    trace = run_lifelong(ds, 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert message in trace.error


HOLD_SCRIPT = PRELUDE + """
for line in sys.stdin:
    request = json.loads(line)
    if request["step"] == 2:
        time.sleep(30)
    score(request)
"""


def test_child_holding_its_answer_is_killed_at_budget(tmp_path):
    pred = script_predictor(tmp_path, HOLD_SCRIPT, "hold")
    budget = 1.5
    t0 = time.perf_counter()
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=budget)
    wall = time.perf_counter() - t0
    assert trace.outcome == "timed-out"
    assert trace.error.startswith("step 2: killed after ")
    assert [s.step for s in trace.steps] == [1]
    assert wall < budget + 2.0


STDERR_FLOOD_SCRIPT = PRELUDE + """
for line in sys.stdin:
    sys.stderr.write("x" * 4_000_000)
    sys.stderr.flush()
    score(json.loads(line))
"""


def test_child_flooding_stderr_still_completes(tmp_path):
    # Nobody reads stderr during the run; a pipe would fill and hang the child.
    pred = script_predictor(tmp_path, STDERR_FLOOD_SCRIPT, "flood")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=20)
    assert trace.outcome == "completed"
    assert (tmp_path / "flood_work" / "stderr.txt").stat().st_size == 8_000_000


CRASH_SCRIPT = PRELUDE + """
for line in sys.stdin:
    request = json.loads(line)
    if request["step"] == 2:
        raise RuntimeError("boom at step 2")
    score(request)
"""


def test_crash_error_quotes_the_tail_of_stderr(tmp_path):
    pred = script_predictor(tmp_path, CRASH_SCRIPT, "crash")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.error.startswith("step 2: PredictorError: exit code 1; stderr: ")
    assert trace.error.endswith(" | RuntimeError: boom at step 2")
    assert "Traceback" in (tmp_path / "crash_work" / "stderr.txt").read_text()


# Each child writes LINE, a Python expression over its request, and then
# answers; the line is kept in the work directory, for the error to quote.
@pytest.mark.parametrize("line", [
    '"hello"',
    'json.dumps({"step": request["step"]})',
    'json.dumps({"token": "0" * 16})',
    'json.dumps({"token": request["token"], "x": 0})',
], ids=["text", "step-answer", "wrong-token", "extra-key"])
def test_stray_stdout_line_is_a_predictor_error(tmp_path, line):
    script = PRELUDE + f"""
for request in sys.stdin:
    request = json.loads(request)
    line = {line}
    with open(os.path.join(workdir, "stray"), "w") as fh:
        fh.write(line)
    print(line, flush=True)
    score(request)
"""
    pred = script_predictor(tmp_path, script, "stray")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    stray = (tmp_path / "stray_work" / "stray").read_text()
    assert trace.error == f"step 1: PredictorError: answer {stray!r} does not echo the request's token"


# After PAUSE seconds each answer is followed by a guess at the next step's
# answer: in the same write when DELAY is None, else DELAY seconds later.
STRAY_SCRIPT = PRELUDE + """
for request in sys.stdin:
    request = json.loads(request)
    time.sleep(PAUSE)
    test = open(request["test"]).read().splitlines()
    with open(request["pred_out"], "w") as fh:
        fh.write("0.5\\n" * (len(test) - 1))
    answer = json.dumps({"token": request["token"]})
    guess = json.dumps({"step": request["step"] + 1})
    if DELAY is None:
        print(answer + "\\n" + guess, flush=True)
    else:
        print(answer, flush=True)
        time.sleep(DELAY)
        print(guess, flush=True)
"""
GUESS_ERROR = "step 2: PredictorError: answer '{\"step\": 2}' does not echo the request's token"


@pytest.mark.parametrize("delay", [None, 0.1], ids=["same-write", "later"])
def test_stray_line_after_an_answer_fails_the_next_step(tmp_path, delay):
    pred = script_predictor(tmp_path, f"PAUSE, DELAY = 0, {delay}\n" + STRAY_SCRIPT, "guess")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.error == GUESS_ERROR
    assert [s.step for s in trace.steps] == [1]


def test_a_slow_childs_guess_is_never_taken_for_an_answer(tmp_path):
    # 0.3 s a step, the guess 50 ms after each answer: the guess reaches the
    # judge before the next answer can, in the second run in the same work
    # directory too, where the first run's predictions files are waiting.
    for _ in range(2):
        pred = script_predictor(tmp_path, "PAUSE, DELAY = 0.3, 0.05\n" + STRAY_SCRIPT, "race")
        trace = run_lifelong(indexed_dataset(40), 4, pred, budget_seconds=60)
        assert trace.outcome == "predictor-error"
        assert trace.error == GUESS_ERROR
        assert [s.step for s in trace.steps] == [1]


# Answers every request without writing its predictions file.
SILENT_SCRIPT = PRELUDE + """
for request in sys.stdin:
    print(json.dumps({"token": json.loads(request)["token"]}), flush=True)
"""


def test_predictions_left_by_an_earlier_run_are_never_read(tmp_path):
    # The echo child runs first in the work directory the silent one gets.
    echo = SubprocessPredictor([sys.executable, "-m", "driftbench.echo_predictor"],
                               workdir=tmp_path / "silent_work")
    assert run_lifelong(indexed_dataset(40), 4, echo, budget_seconds=60).outcome == "completed"
    pred = script_predictor(tmp_path, SILENT_SCRIPT, "silent")
    trace = run_lifelong(indexed_dataset(40), 4, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.error == "step 1: PredictorError: predictions file not written"


def test_readme_request_example_matches_a_live_request(tmp_path):
    # The protocol as outside authors read it: the README's request has the
    # keys a live one has, and its answer echoes the example's token.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = json.loads(readme.split("program's stdin:\n\n```\n", 1)[1].split("```", 1)[0])
    assert json.dumps({"token": example["token"]}) in readme
    pred = script_predictor(tmp_path, JOURNAL_SCRIPT, "journal")
    assert run_lifelong(indexed_dataset(100), 10, pred, budget_seconds=60).outcome == "completed"
    journal = [json.loads(line) for line in
               (tmp_path / "journal_work" / "journal.jsonl").read_text().splitlines()]
    assert [e["keys"] for e in journal] == [list(example)] * 9
    tokens = [e["token"] for e in journal]
    assert all(re.fullmatch("[0-9a-f]{16}", token) for token in [example["token"], *tokens])
    assert len(set(tokens)) == len(tokens)


def test_long_answer_line_is_quoted_short(tmp_path):
    # The error quotes the start of a wrong answer and its length, not all of it.
    script = PRELUDE + """
for request in sys.stdin:
    print("x" * 60000, flush=True)
    score(json.loads(request))
"""
    pred = script_predictor(tmp_path, script, "long_answer")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.error == (f"step 1: PredictorError: answer {'x' * 200!r}... (60000 characters) "
                           "does not echo the request's token")


def test_long_prediction_line_is_quoted_short(tmp_path):
    script = PRELUDE + """
for request in sys.stdin:
    request = json.loads(request)
    with open(request["pred_out"], "w") as fh:
        fh.write("0.5x" * 25000 + "\\n")
    print(json.dumps({"token": request["token"]}), flush=True)
"""
    pred = script_predictor(tmp_path, script, "long_prediction")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "predictor-error"
    assert trace.error == (f"step 1: PredictorError: unparseable prediction: "
                           f"{'0.5x' * 50!r}... (100000 characters)")


LINGER_SCRIPT = JOURNAL_SCRIPT + """
time.sleep(30)  # ignores the end of its input
"""


@pytest.mark.parametrize("source, budget, outcome", [
    (JOURNAL_SCRIPT, 60, "completed"),
    (LINGER_SCRIPT, 60, "completed"),
    (HOLD_SCRIPT, 1.0, "timed-out"),
    (CRASH_SCRIPT, 60, "predictor-error"),
], ids=["completed", "lingering", "timed-out", "crashed"])
def test_no_child_outlives_the_run(tmp_path, source, budget, outcome):
    pred = script_predictor(tmp_path, source, "child")
    t0 = time.perf_counter()
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=budget)
    assert trace.outcome == outcome
    assert time.perf_counter() - t0 < 5.0  # a lingering child gets a short grace
    pid = int((tmp_path / "child_work" / "pid").read_text())
    with pytest.raises(ProcessLookupError):  # a zombie would still answer
        os.kill(pid, 0)


# The child starts a helper that inherits its stdout, serves every step,
# and exits when its stdin closes; the helper would sleep on.
HELPER_SCRIPT = PRELUDE + """
import subprocess
helper = subprocess.Popen(["sleep", "20"])
with open(os.path.join(workdir, "helper_pid"), "w") as fh:
    fh.write(str(helper.pid))
for line in sys.stdin:
    score(json.loads(line))
"""


def live_group_members(pgid):
    """Pids of the processes in group ``pgid`` that have not exited (a
    zombie has)."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while listed
            continue
        if int(fields[2]) == pgid and fields[0] not in "ZX":
            live.append(int(stat.parent.name))
    return live


def test_close_leaves_no_process_of_the_childs_group(tmp_path):
    pred = script_predictor(tmp_path, HELPER_SCRIPT, "child")
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "completed"
    pgid = int((tmp_path / "child_work" / "pid").read_text())
    helper = int((tmp_path / "child_work" / "helper_pid").read_text())
    try:
        deadline = time.perf_counter() + 3.0
        while live_group_members(pgid) and time.perf_counter() < deadline:
            time.sleep(0.05)
        assert live_group_members(pgid) == []
    finally:
        if helper in live_group_members(pgid):
            os.kill(helper, 9)


# A child built on ``serve``: ``{before}`` runs before the loop starts and
# ``{during}`` at the start of every step.
SERVE_SCRIPT = """\
import atexit, os, sys, time
from driftbench.echo_predictor import serve
workdir = sys.argv[sys.argv.index("--workdir") + 1]
{before}

def step(args, request):
    {during}
    n_rows = len(open(request["test"]).read().splitlines()) - 1
    with open(request["pred_out"], "w") as fh:
        fh.write("0.5\\n" * n_rows)

sys.exit(serve("scripted child", step))
"""


def test_a_served_child_is_not_waited_for_past_its_exit_hooks(tmp_path):
    # A hook registered before the loop runs after ``serve``'s, which says
    # the child is done, so the judge does not wait out the sleep.
    script = SERVE_SCRIPT.format(before="atexit.register(time.sleep, 3)", during="pass")
    pred = script_predictor(tmp_path, script, "served")
    seconds, close = [], pred.close

    def timed_close():
        t0 = time.perf_counter()
        close()
        seconds.append(time.perf_counter() - t0)

    pred.close = timed_close
    trace = run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60)
    assert trace.outcome == "completed"
    assert len(seconds) == 1 and seconds[0] < 0.5


def test_exit_hooks_the_steps_register_finish_before_the_kill(tmp_path):
    # Registered after ``serve``'s own hook, so it runs first, sleep and all.
    during = """if request["step"] == 1:
        atexit.register(lambda: (time.sleep(0.2), open(os.path.join(workdir, "hooked"), "w")))"""
    pred = script_predictor(tmp_path, SERVE_SCRIPT.format(before="", during=during), "served")
    assert run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60).outcome == "completed"
    assert (tmp_path / "served_work" / "hooked").exists()


# A launcher in the pattern of the benchmark's ``bench/child_shim.py``: it
# imports a module built on ``serve``, runs its ``main``, and writes its
# record once ``main`` returns, before the interpreter's exit hooks run.
WRAPPER_SCRIPT = """\
import importlib, os, sys, time
module_name, argv = sys.argv[1], sys.argv[2:]
workdir = argv[argv.index("--workdir") + 1]
module = importlib.import_module(module_name)
try:
    code = module.main(argv)
finally:
    time.sleep(0.2)  # a record that takes a while to write
    with open(os.path.join(workdir, "record"), "w") as fh:
        fh.write("done")
sys.exit(code)
"""


def test_a_wrappers_record_written_after_main_survives_the_close(tmp_path):
    script = tmp_path / "wrapper.py"
    script.write_text(WRAPPER_SCRIPT)
    pred = SubprocessPredictor([sys.executable, str(script), "driftbench.echo_predictor"],
                               workdir=tmp_path / "work")
    assert run_lifelong(indexed_dataset(30), 3, pred, budget_seconds=60).outcome == "completed"
    assert (tmp_path / "work" / "record").read_text() == "done"
