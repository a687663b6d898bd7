import gc

import numpy as np
import pytest

from driftbench import baseline
from driftbench.baseline import (
    BaselineConfig,
    BaselinePredictor,
    BoostedEnsemble,
    RegressionTree,
    TrainingPool,
    ensemble_margin,
    extend,
    fit_initial,
    log_loss,
    predict_scores,
    presort,
    select_training_pool,
    sigmoid,
)
from driftbench.data import ChronoDataset, FeatureKind, plan_blocks
from driftbench.encoding import EncoderKind, encode_dataset, fit_dataset_encoders
from driftbench.metrics import auc
from driftbench.harness import OUTCOME_PREDICTOR_ERROR, run_lifelong
from driftbench.synth import DriftGenSpec, desk_spec, generate_drift_stream

FAST = dict(initial_trees=30, trees_per_block=8, max_depth=3, learning_rate=0.2)


def toy_pool(rows_per_block=1000, n_blocks=10, width=2):
    blocks = tuple(
        (b, np.full((rows_per_block, width), float(b)), np.zeros(rows_per_block))
        for b in range(n_blocks)
    )
    return TrainingPool(blocks)


# ---------------------------------------------------------------------------
# training pool selection


def test_small_history_returned_whole():
    pool = toy_pool(rows_per_block=10, n_blocks=3)
    X, y, ids = select_training_pool(pool, "grow-full-history", cap=1000, seed=0)
    assert X.shape[0] == 30
    assert list(ids) == [0] * 10 + [1] * 10 + [2] * 10


def test_capped_selection_prefers_recent_blocks():
    pool = toy_pool(rows_per_block=1000, n_blocks=10)
    newest, oldest = [], []
    for seed in range(50):
        _, _, ids = select_training_pool(pool, "grow-full-history", cap=100, seed=seed)
        assert ids.shape[0] == 100
        newest.append(int(np.sum(ids == 9)))
        oldest.append(int(np.sum(ids == 0)))
    assert np.mean(newest) > np.mean(oldest)


def test_selection_deterministic_given_seed():
    pool = toy_pool()
    a = select_training_pool(pool, "grow-full-history", cap=50, seed=123)[2]
    b = select_training_pool(pool, "grow-full-history", cap=50, seed=123)[2]
    assert np.array_equal(a, b)


def test_sliding_window_restricts_to_newest_blocks():
    pool = toy_pool(rows_per_block=20, n_blocks=5)
    _, _, ids = select_training_pool(pool, "sliding-window", cap=1000, seed=0,
                                     window_blocks=1)
    assert set(ids.tolist()) == {4}


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        select_training_pool(toy_pool(), "mystery", cap=10, seed=0)


# ---------------------------------------------------------------------------
# trees


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    X[:, 0] += np.where(X[:, 0] >= 0, 1.0, -1.0)  # margin around 0
    y = (X[:, 0] > 0).astype(np.float64)
    return X, y


def test_single_split_tree():
    X, y = separable_data()
    residual = y - 0.5
    tree = RegressionTree.fit(X, residual, max_depth=1)
    assert tree.n_nodes == 3
    pred = tree.predict(X)
    assert set(np.round(pred, 6)) == {-0.5, 0.5}


def test_tree_is_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, 5))
    r = rng.normal(size=300)
    t1 = RegressionTree.fit(X, r, max_depth=4)
    t2 = RegressionTree.fit(X, r, max_depth=4)
    for attr in ("feature", "threshold", "left", "right", "value"):
        assert np.array_equal(getattr(t1, attr), getattr(t2, attr))


def test_tree_on_constant_features_stays_leaf():
    X = np.ones((50, 3))
    r = np.linspace(-1, 1, 50)
    tree = RegressionTree.fit(X, r, max_depth=3)
    assert tree.n_nodes == 1
    assert tree.predict(X[:5]) == pytest.approx(np.full(5, r.mean()))


# ---------------------------------------------------------------------------
# reference split search: one stable sort per node and feature


def reference_fit(X, residual, max_depth):
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def grow(node, idx, depth):
        r = residual[idx]
        value[node] = float(r.mean())
        if depth >= max_depth or idx.size < 2:
            return
        split = reference_best_split(X[idx], r)
        if split is None:
            return
        j, thr = split
        go_left = X[idx, j] <= thr
        node_l, node_r = new_node(), new_node()
        feature[node] = j
        threshold[node] = thr
        left[node] = node_l
        right[node] = node_r
        grow(node_l, idx[go_left], depth + 1)
        grow(node_r, idx[~go_left], depth + 1)

    root = new_node()
    grow(root, np.arange(X.shape[0]), 0)
    return RegressionTree(feature, threshold, left, right, value)


def reference_best_split(X, r):
    n = r.shape[0]
    total = r.sum()
    best_gain = 0.0
    best = None
    base = total * total / n
    for j in range(X.shape[1]):
        v = X[:, j]
        order = np.argsort(v, kind="mergesort")
        vs = v[order]
        cum = np.cumsum(r[order])
        cuts = np.nonzero(vs[:-1] < vs[1:])[0]
        if cuts.size == 0:
            continue
        n_left = cuts + 1
        s_left = cum[cuts]
        s_right = total - s_left
        gain = s_left * s_left / n_left + s_right * s_right / (n - n_left) - base
        i = int(np.argmax(gain))
        if gain[i] > best_gain + 1e-12:
            best_gain = float(gain[i])
            best = (j, float(0.5 * (vs[cuts[i]] + vs[cuts[i] + 1])))
    return best


def assert_same_tree(got, want):
    for attr in ("feature", "threshold", "left", "right", "value"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def random_split_case(rng):
    n = int(rng.integers(2, 401))
    d = int(rng.integers(1, 13))
    X = np.round(rng.normal(scale=3.0, size=(n, d)), int(rng.integers(0, 3)))
    kind = rng.integers(4)
    if kind == 1:
        X[:, rng.integers(d)] = 1.5                     # one constant column
    elif kind == 2:
        X[:] = -2.0                                     # nothing to split on
    elif kind == 3:
        X[rng.random(n) < 0.3, rng.integers(d)] = np.nan
    residual = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
    if rng.random() < 0.3:
        # Sums over 16 orders of magnitude change with the order of their
        # terms, so any other summation order shows.
        residual *= 10.0 ** rng.integers(-8, 9, size=n)
    return X, residual, int(rng.integers(1, 7))


def test_presort_orders_ties_by_row():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 4, size=(60, 3)).astype(np.float64)
    X[rng.random(60) < 0.2, 2] = np.nan
    want = [sorted(range(60), key=lambda i: (np.isnan(v[i]), 0.0 if np.isnan(v[i]) else v[i], i))
            for v in X.T]
    got = presort(X)
    assert got.dtype == np.int32
    assert got.tolist() == want


# 64 cells split every node's search into chunks of one or a few features.
@pytest.mark.parametrize("split_cells", [baseline._SPLIT_CELLS, 64])
def test_presorted_fit_matches_reference_tree_for_tree(split_cells, monkeypatch):
    monkeypatch.setattr(baseline, "_SPLIT_CELLS", split_cells)
    rng = np.random.default_rng(split_cells)
    for _ in range(250):
        X, residual, depth = random_split_case(rng)
        assert_same_tree(RegressionTree.fit(X, residual, depth),
                         reference_fit(X, residual, depth))


@pytest.mark.parametrize("shape", ["A", "D"])
def test_boosting_matches_reference_fit(shape, monkeypatch):
    ds = generate_drift_stream(desk_spec(shape, 450, n_blocks=3, drift="gradual",
                                         drift_magnitude=1.0, seed=5))
    X, _ = encode_dataset(ds)
    y = np.asarray(ds.labels, float)
    cfg = BaselineConfig(initial_trees=6, trees_per_block=3, max_depth=4,
                         learning_rate=0.3, seed=5)

    def grow():
        (a0, a1), (b0, b1), (c0, c1) = plan_blocks(len(ds), 3).ranges
        ens = fit_initial(X[a0:a1], y[a0:a1], cfg)
        ens = extend(ens, X[b0:b1], y[b0:b1], cfg)
        return extend(ens, X[c0:c1], y[c0:c1], cfg)

    got = grow()
    monkeypatch.setattr(RegressionTree, "fit", classmethod(
        lambda cls, X, residual, max_depth, order=None: reference_fit(X, residual, max_depth)))
    want = grow()
    assert got.n_trees == want.n_trees == 12
    for g, w in zip(got.trees, want.trees):
        assert_same_tree(g, w)
    assert np.array_equal(ensemble_margin(got, X), ensemble_margin(want, X))


def _unreachable_after(work):
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


def test_tree_fit_leaves_no_reference_cycles():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(300, 6))
    r = rng.normal(size=300)
    assert _unreachable_after(lambda: RegressionTree.fit(X, r, 4)) == 0


def test_fit_initial_leaves_no_reference_cycles():
    X, y = separable_data(n=300, seed=4)
    cfg = BaselineConfig(initial_trees=5, trees_per_block=1, max_depth=4, seed=4)
    assert _unreachable_after(lambda: fit_initial(X, y, cfg)) == 0


# ---------------------------------------------------------------------------
# boosting


def test_separable_block_is_learned():
    X, y = separable_data()
    ens = fit_initial(X, y, BaselineConfig(initial_trees=50, trees_per_block=10,
                                           max_depth=3, learning_rate=0.2))
    assert auc(y, predict_scores(ens, X)) >= 0.99


def test_single_class_block_predicts_prior():
    X = np.random.default_rng(0).normal(size=(40, 3))
    ens = fit_initial(X, np.ones(40), BaselineConfig(initial_trees=1, trees_per_block=1,
                                                     max_depth=1))
    assert ens.n_trees == 0
    assert np.all(predict_scores(ens, X) >= 0.9)


def test_fit_deterministic_given_seed():
    spec = DriftGenSpec(n_rows=600, n_cat=2, n_num=3, n_mvc=0, n_time=0,
                        n_blocks=3, seed=4)
    ds = generate_drift_stream(spec)
    X, _ = encode_dataset(ds)
    y = np.asarray(ds.labels, float)
    cfg = BaselineConfig(seed=77, **FAST)
    e1 = fit_initial(X, y, cfg)
    e2 = fit_initial(X, y, cfg)
    assert e1.n_trees == e2.n_trees
    for t1, t2 in zip(e1.trees, e2.trees):
        assert np.array_equal(t1.feature, t2.feature)
        assert np.array_equal(t1.threshold, t2.threshold)
        assert np.array_equal(t1.value, t2.value)


def test_empty_ensemble_scores_at_base():
    ens = BoostedEnsemble(base_score=0.3, trees=(), tree_rates=(), n_features=2,
                          revealed_blocks=-1, pool=TrainingPool(()))
    scores = predict_scores(ens, np.random.default_rng(0).normal(size=(7, 2)))
    assert scores == pytest.approx(np.full(7, sigmoid(np.array([0.3]))[0]))


def test_manual_stump_scores():
    stump = RegressionTree(feature=[0, -1, -1], threshold=[0.0, 0.0, 0.0],
                           left=[1, -1, -1], right=[2, -1, -1],
                           value=[0.0, -2.0, 2.0])
    ens = BoostedEnsemble(base_score=0.0, trees=(stump,), tree_rates=(1.0,),
                          n_features=1, revealed_blocks=0, pool=TrainingPool(()))
    scores = predict_scores(ens, np.array([[-1.0], [0.0], [1.0]]))
    lo, hi = 1 / (1 + np.exp(2)), 1 / (1 + np.exp(-2))
    assert scores == pytest.approx([lo, lo, hi])


def test_duplicate_rows_score_identically():
    X, y = separable_data(seed=3)
    ens = fit_initial(X, y, BaselineConfig(seed=3, **FAST))
    row = X[10:11]
    scores = predict_scores(ens, np.repeat(row, 5, axis=0))
    assert np.all(scores == scores[0])


def test_width_mismatch_rejected():
    X, y = separable_data()
    ens = fit_initial(X, y, BaselineConfig(seed=1, **FAST))
    with pytest.raises(ValueError):
        predict_scores(ens, np.zeros((3, 5)))


def test_gradient_matches_finite_differences():
    # The boosting target (y - p) must be the negative derivative of the
    # per-row logistic loss with respect to the raw score.
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=64).astype(np.float64)
    margin = rng.normal(scale=2.0, size=64)
    eps = 1e-5
    numeric = np.empty_like(margin)
    for i in range(64):
        up, down = margin.copy(), margin.copy()
        up[i] += eps
        down[i] -= eps
        loss_up = log_loss(y[i:i + 1], sigmoid(up[i:i + 1]))
        loss_down = log_loss(y[i:i + 1], sigmoid(down[i:i + 1]))
        numeric[i] = (loss_up - loss_down) / (2 * eps)
    analytic = -(y - sigmoid(margin))
    assert np.max(np.abs(numeric - analytic)) < 1e-6


def test_training_loss_non_increasing_per_iteration():
    spec = DriftGenSpec(n_rows=900, n_cat=2, n_num=3, n_mvc=1, n_time=1,
                        n_blocks=3, seed=6)
    ds = generate_drift_stream(spec)
    X, _ = encode_dataset(ds)
    y = np.asarray(ds.labels, float)
    plan = plan_blocks(len(ds), 3)
    cfg = BaselineConfig(seed=5, **FAST)
    (a0, a1), (b0, b1), _ = plan.ranges
    ens = fit_initial(X[a0:a1], y[a0:a1], cfg)
    ens = extend(ens, X[b0:b1], y[b0:b1], cfg)
    assert len(ens.loss_history) == 2
    for curve in ens.loss_history:
        assert np.all(np.diff(curve) <= 1e-9)


def test_tree_count_follows_growth_law():
    X, y = separable_data(n=300)
    cfg = BaselineConfig(initial_trees=50, trees_per_block=10, max_depth=2,
                         learning_rate=0.3, seed=0)
    ens = fit_initial(X[:100], y[:100], cfg)
    assert ens.n_trees == 50
    for k in range(3):
        ens = extend(ens, X[100 + k * 50: 150 + k * 50], y[100 + k * 50: 150 + k * 50], cfg)
    assert ens.n_trees == 80
    assert ens.revealed_blocks == 3


def test_sliding_window_pool_keeps_last_two_blocks():
    X, y = separable_data(n=500, seed=9)
    cfg = BaselineConfig(initial_trees=5, trees_per_block=2, max_depth=2,
                         learning_rate=0.3, policy="sliding-window",
                         window_blocks=2, seed=0)
    ens = fit_initial(X[:100], y[:100], cfg)
    for k in range(4):
        lo = 100 * (k + 1)
        ens = extend(ens, X[lo:lo + 100], y[lo:lo + 100], cfg)
    assert ens.pool.block_ids == (3, 4)


def test_extend_never_changes_prior_trees():
    X, y = separable_data(n=400, seed=2)
    cfg = BaselineConfig(seed=2, **FAST)
    ens = fit_initial(X[:200], y[:200], cfg)
    before = ensemble_margin(ens, X[200:])
    grown = extend(ens, X[200:300], y[200:300], cfg)
    assert grown.trees[:ens.n_trees] == ens.trees
    assert grown.tree_rates[:ens.n_trees] == ens.tree_rates
    assert grown.base_score == ens.base_score
    assert np.array_equal(ensemble_margin(ens, X[200:]), before)


def test_adaptive_lr_decays_per_block():
    X, y = separable_data(n=400, seed=5)
    cfg = BaselineConfig(initial_trees=3, trees_per_block=2, max_depth=2,
                         learning_rate=0.4, policy="adaptive-lr", decay=0.5, seed=0)
    ens = fit_initial(X[:100], y[:100], cfg)
    ens = extend(ens, X[100:200], y[100:200], cfg)
    ens = extend(ens, X[200:300], y[200:300], cfg)
    assert ens.tree_rates[:3] == (0.4, 0.4, 0.4)
    assert ens.tree_rates[3:5] == (0.2, 0.2)       # 0.4 * 0.5
    assert ens.tree_rates[5:7] == (0.1, 0.1)       # 0.4 * 0.5**2


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(initial_trees=0)
    with pytest.raises(ValueError):
        BaselineConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        BaselineConfig(policy="nope")
    with pytest.raises(ValueError):
        BaselineConfig(window_blocks=0)


# ---------------------------------------------------------------------------
# drift behavior end to end


def _post_drift_auc(predictor, spec):
    ds = generate_drift_stream(spec)
    plan = plan_blocks(len(ds), spec.n_blocks)
    trace = run_lifelong(ds, plan, predictor, budget_seconds=600, dataset_id="x")
    assert trace.outcome == "completed"
    mid = spec.n_blocks // 2
    return float(np.mean([s.auc for s in trace.steps if s.step >= mid]))


def test_sliding_window_recovers_after_abrupt_drift():
    margins = []
    for seed in range(3):
        spec = DriftGenSpec(n_rows=2500, n_cat=3, n_num=4, n_mvc=1, n_time=1,
                            n_blocks=10, drift="abrupt", drift_magnitude=2.5,
                            cat_cardinality=20, seed=seed)
        sliding = BaselinePredictor(BaselineConfig(
            seed=seed, policy="sliding-window", window_blocks=2, **FAST))
        frozen = BaselinePredictor(BaselineConfig(seed=seed, **FAST),
                                   freeze_after_initial=True)
        margins.append(_post_drift_auc(sliding, spec) - _post_drift_auc(frozen, spec))
    assert float(np.mean(margins)) > 0.0


@pytest.mark.parametrize("kind", [EncoderKind.COUNT, EncoderKind.TARGET_MEAN])
def test_non_ordinal_encoders_stay_frozen_on_the_first_block(kind):
    spec = DriftGenSpec(n_rows=600, n_cat=2, n_num=2, n_mvc=1, n_time=1,
                        n_blocks=5, drift="gradual", drift_magnitude=1.0, seed=4)
    ds = generate_drift_stream(spec)
    plan = plan_blocks(len(ds), spec.n_blocks)
    cfg = BaselineConfig(cat_encoder=kind, seed=4, **FAST)
    pred = BaselinePredictor(cfg)
    trace = run_lifelong(ds, plan, pred, budget_seconds=600, dataset_id="x")
    assert trace.outcome == "completed"
    assert len(trace.steps) == spec.n_blocks - 1
    assert all(np.isfinite(s.auc) for s in trace.steps)
    lo, hi = plan.ranges[0]
    first = fit_dataset_encoders(ds.schema, ds.rows[lo:hi], ds.labels[lo:hi],
                                 cat_kind=kind, smoothing=cfg.target_smoothing)
    assert pred.encoders == first


def test_non_finite_numeric_cell_is_a_predictor_error():
    spec = desk_spec("D", 600, n_blocks=5, drift="gradual", drift_magnitude=1.0, seed=4)
    ds = generate_drift_stream(spec)
    plan = plan_blocks(len(ds), spec.n_blocks)
    j = next(j for j, (_, kind) in enumerate(ds.schema.columns)
             if kind is FeatureKind.NUMERICAL)
    name = ds.schema.columns[j][0]
    lo, hi = plan.ranges[0]
    rows = tuple(row[:j] + ("inf",) + row[j + 1:] if lo <= i < hi and ds.labels[i] == 1
                 else row for i, row in enumerate(ds.rows))
    poisoned = ChronoDataset(ds.schema, rows, ds.labels)
    trace = run_lifelong(poisoned, plan, BaselinePredictor(BaselineConfig(seed=4, **FAST)),
                         budget_seconds=600, dataset_id="x")
    assert trace.outcome == OUTCOME_PREDICTOR_ERROR
    assert f"column {name!r}: 'inf' is not a finite number" in trace.error


def test_predict_before_learn_raises():
    pred = BaselinePredictor(BaselineConfig(**FAST))
    with pytest.raises(RuntimeError):
        pred.predict([("1.0",)])
