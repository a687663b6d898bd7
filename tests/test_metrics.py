from types import SimpleNamespace

import numpy as np
import pytest

from driftbench.harness import EvaluationTrace, run_lifelong
from driftbench.metrics import UndefinedAUCError, auc

from test_harness import indexed_dataset


def pairwise_auc(labels, scores):
    """Brute-force oracle: count (positive, negative) pairs directly."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_perfect_separation():
    assert auc([0, 1], [0.2, 0.9]) == 1.0


def test_all_ties_is_half():
    assert auc([0, 1, 1, 0], [0.3, 0.3, 0.3, 0.3]) == 0.5


def test_small_example_against_pairwise_oracle():
    labels = [0, 1, 1, 0]
    scores = [0.1, 0.4, 0.8, 0.5]
    # pairs: (0.4,0.1)+ (0.4,0.5)- (0.8,0.1)+ (0.8,0.5)+ -> 3 of 4
    assert pairwise_auc(labels, scores) == 0.75
    assert auc(labels, scores) == pytest.approx(0.75, abs=1e-15)


def test_rank_statistic_matches_pairwise_everywhere():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), decimals=int(rng.integers(0, 3)))
        assert auc(labels, scores) == pytest.approx(pairwise_auc(labels, scores),
                                                    abs=1e-12)


def test_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=n)
        assert auc(labels, scores) == pytest.approx(
            auc(labels, np.exp(2.0 * scores) + 7.0), abs=1e-12)


def test_score_negation_complements():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.permutation(np.arange(n, dtype=float))  # tie-free
        assert auc(labels, scores) + auc(labels, -scores) == pytest.approx(1.0, abs=1e-12)


def test_single_class_is_undefined():
    with pytest.raises(UndefinedAUCError):
        auc([1, 1, 1], [0.1, 0.2, 0.3])
    with pytest.raises(UndefinedAUCError):
        auc([0, 0], [0.1, 0.2])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        auc([0, 1, 1], [0.5, 0.5])


# ---------------------------------------------------------------------------
# dataset score: the lifelong trace's mean block AUC, 0 when disqualified


@pytest.fixture
def clock(monkeypatch):
    """Replace the harness's clock with one that moves only when a
    predictor advances it, so billed times are exact."""
    fake = SimpleNamespace(now=0.0)
    fake.perf_counter = lambda: fake.now
    monkeypatch.setattr("driftbench.harness.time", fake)
    return fake


class ScriptedPredictor:
    """Each ``learn`` takes ``learn_seconds`` on the fake clock.  Step k is
    scored per ``aucs[k - 1]``: 1.0 ranks the block's labels perfectly, 0.5
    scores every row alike, ``None`` crashes."""

    name = "scripted"

    def __init__(self, clock, aucs, learn_seconds=0.5):
        self.clock = clock
        self.aucs = aucs
        self.learn_seconds = learn_seconds
        self.step = 0

    def learn(self, block, remaining_budget_seconds):
        self.clock.now += self.learn_seconds

    def predict(self, block):
        self.step += 1
        target = self.aucs[self.step - 1]
        if target is None:
            raise RuntimeError("boom")
        if target == 1.0:
            return np.array([float(int(c) % 2) for c in block.columns[0]])
        return np.full(len(block), 0.5)


def scripted_run(clock, aucs, budget_seconds):
    """Run ``len(aucs)`` steps of 10-row blocks."""
    n_blocks = len(aucs) + 1
    return run_lifelong(indexed_dataset(10 * n_blocks), n_blocks,
                        ScriptedPredictor(clock, aucs), budget_seconds)


def test_mean_over_blocks(clock):
    trace = scripted_run(clock, (1.0, 0.5), budget_seconds=100)
    assert [s.auc for s in trace.steps] == [1.0, 0.5]
    assert trace.mean_auc == pytest.approx(0.75)
    assert not trace.disqualified


def test_budget_overrun_zeroes_the_dataset(clock):
    trace = scripted_run(clock, (1.0, 1.0), budget_seconds=0.75)
    assert trace.outcome == "timed-out"
    assert [s.auc for s in trace.steps] == [1.0]
    assert trace.disqualified
    assert trace.mean_auc == 0.0


def test_exactly_on_budget_is_fine(clock):
    trace = scripted_run(clock, (1.0, 1.0), budget_seconds=1.0)
    assert trace.total_elapsed_seconds == 1.0
    assert trace.outcome == "completed"
    assert not trace.disqualified
    assert trace.mean_auc == 1.0
    clock.now = 0.0
    assert scripted_run(clock, (1.0, 1.0), budget_seconds=0.999).outcome == "timed-out"


def test_single_block(clock):
    trace = scripted_run(clock, (1.0,), budget_seconds=10)
    assert len(trace.steps) == 1
    assert trace.mean_auc == 1.0


def test_explicit_total_elapsed_counts_aborted_time(clock):
    trace = scripted_run(clock, (1.0, 1.0), budget_seconds=0.75)
    assert [s.elapsed_seconds for s in trace.steps] == [0.5]
    assert trace.total_elapsed_seconds == 1.0
    assert trace.disqualified


def test_failed_run_is_disqualified_even_within_budget(clock):
    trace = scripted_run(clock, (1.0, None), budget_seconds=100.0)
    assert trace.outcome == "predictor-error"
    assert [s.auc for s in trace.steps] == [1.0]
    assert trace.disqualified
    assert trace.mean_auc == 0.0


def test_empty_blocks_need_failure_flag(clock):
    trace = scripted_run(clock, (None,), budget_seconds=10)
    assert trace.steps == ()
    assert trace.mean_auc == 0.0 and trace.disqualified
    unloadable = EvaluationTrace("d", (), total_elapsed_seconds=0.0,
                                 outcome="predictor-error", budget_seconds=10.0)
    assert unloadable.mean_auc == 0.0 and unloadable.disqualified
