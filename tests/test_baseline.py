import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from driftbench import baseline
from driftbench.baseline import (
    DRIFT_POLICIES,
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
from driftbench.data import (
    ChronoDataset,
    FeatureKind,
    load_dataset,
    plan_blocks,
    write_rows,
    write_schema,
)
from driftbench.encoding import EncoderKind, extend_ordinal, fit_dataset_encoders, transform_rows
from driftbench.metrics import auc
from driftbench.reference_predictor import _config_from_env
from driftbench.harness import OUTCOME_PREDICTOR_ERROR, run_lifelong
from driftbench.synth import DriftGenSpec, desk_spec, generate_drift_stream

FAST = dict(initial_trees=30, trees_per_block=8, max_depth=3, learning_rate=0.2)


def toy_pool(rows_per_block=1000, n_blocks=10, width=2):
    ids = np.repeat(np.arange(n_blocks), rows_per_block)
    X = np.repeat(ids[:, None], width, axis=1).astype(float)
    return TrainingPool(X, np.zeros(ids.size), ids, -ids.astype(float), presort(X))


def sampled(pool, cap, seed):
    """Features, labels and margins of the rows ``select_training_pool`` picks."""
    sample = pool.take(select_training_pool(pool, cap=cap, seed=seed))
    return sample.X, sample.y, sample.margin


# ---------------------------------------------------------------------------
# training pool selection


def test_small_history_returned_whole():
    pool = toy_pool(rows_per_block=10, n_blocks=3)
    X, y, margin = sampled(pool, cap=1000, seed=0)
    assert X.shape[0] == 30
    assert list(X[:, 0]) == [0] * 10 + [1] * 10 + [2] * 10
    assert np.array_equal(margin, -X[:, 0])


def test_capped_selection_prefers_recent_blocks():
    pool = toy_pool(rows_per_block=1000, n_blocks=10)
    newest, oldest = [], []
    for seed in range(50):
        X, _, margin = sampled(pool, cap=100, seed=seed)
        ids = X[:, 0]
        assert ids.shape[0] == 100
        assert np.array_equal(margin, -ids)
        newest.append(int(np.sum(ids == 9)))
        oldest.append(int(np.sum(ids == 0)))
    assert np.mean(newest) > np.mean(oldest)


def test_selection_deterministic_given_seed():
    pool = toy_pool()
    a = sampled(pool, cap=50, seed=123)[0]
    b = sampled(pool, cap=50, seed=123)[0]
    assert np.array_equal(a, b)


def test_selection_fills_up_when_old_weights_underflow():
    # 1e-200 ** 2 underflows to 0: only the newest two blocks keep a weight.
    pool = toy_pool(rows_per_block=10, n_blocks=4)
    pick = select_training_pool(pool, cap=25, seed=3, decay=1e-200)
    assert pick.size == 25 and np.all(np.diff(pick) > 0)
    assert set(range(20, 40)) <= set(pick.tolist())
    assert np.array_equal(pick, select_training_pool(pool, cap=25, seed=3, decay=1e-200))
    X, y = separable_data(n=40, seed=2)
    cfg = BaselineConfig(initial_trees=2, trees_per_block=1, max_depth=2, subsample_cap=25,
                         decay=1e-200)
    ens = fit_initial(X[:10], y[:10], cfg)
    for lo in (10, 20, 30):
        ens = extend(ens, X[lo:lo + 10], y[lo:lo + 10], cfg)
    assert ens.revealed_blocks == 3


def test_sliding_window_restricts_to_newest_blocks():
    pool = toy_pool(rows_per_block=20, n_blocks=5)
    for k, ids in ((1, [4]), (2, [3, 4]), (5, [0, 1, 2, 3, 4]), (9, [0, 1, 2, 3, 4])):
        kept = pool.keep_last(k)
        assert np.array_equal(kept.ids, np.repeat(ids, 20))
        assert np.array_equal(kept.X[:, 0], kept.ids) and np.array_equal(kept.margin, -kept.ids)


# Few distinct values, signed zeros and NaN: every column is full of ties.
CELLS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan])


def assert_presorted(pool):
    assert pool.order.dtype == np.intp
    assert np.array_equal(pool.order, np.argsort(pool.X.T, axis=1, kind="stable"))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pool_keeps_the_presort_of_its_rows(data):
    width = data.draw(st.integers(1, 4), label="width")
    block = hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(width)), elements=CELLS)
    pool = TrainingPool.empty(width)
    for k, X in enumerate(data.draw(st.lists(block, min_size=1, max_size=6), label="blocks")):
        pool = pool.add(k, X, np.zeros(X.shape[0]), np.full(X.shape[0], -k, dtype=float))
        assert_presorted(pool)
        assert np.array_equal(pool.margin, -pool.ids)
        assert_presorted(pool.keep_last(data.draw(st.integers(1, k + 1), label="window")))
    cap = data.draw(st.integers(1, pool.ids.size), label="cap")
    pick = select_training_pool(pool, cap, seed=data.draw(st.integers(0, 99), label="seed"))
    assert np.array_equal(np.unique(pick), pick) and pick.size == cap
    assert_presorted(pool.take(pick))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_extended_pool_keeps_its_presort_through_windows_samples_and_resets(data):
    width = data.draw(st.integers(1, 3), label="width")
    cfg = BaselineConfig(initial_trees=2, trees_per_block=1, max_depth=2, learning_rate=0.5,
                         policy=data.draw(st.sampled_from(DRIFT_POLICIES), label="policy"),
                         window_blocks=1 + data.draw(st.integers(0, 1), label="window"),
                         subsample_cap=data.draw(st.integers(3, 40), label="cap"), seed=1)
    ens = None
    for _ in range(data.draw(st.integers(1, 6), label="blocks")):
        X = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(2, 12), st.just(width)),
                                 elements=CELLS), label="X")
        labels = data.draw(st.sampled_from(["zeros", "ones", "mixed"]), label="labels")
        y = (np.arange(X.shape[0]) % 2.0 if labels == "mixed"
             else np.full(X.shape[0], float(labels == "ones")))
        ens = fit_initial(X, y, cfg) if ens is None else extend(ens, X, y, cfg)
        assert_presorted(ens.pool)
        assert np.array_equal(ens.pool.margin, ensemble_margin(ens, ens.pool.X))


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
    assert got.dtype == np.intp
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


def test_fit_writes_each_rows_leaf_value():
    rng = np.random.default_rng(13)
    for _ in range(150):
        X, residual, depth = random_split_case(rng)
        out = np.full(X.shape[0], np.nan)
        tree = RegressionTree.fit(X, residual, depth, out=out)
        assert np.array_equal(out, tree.predict(X))


def reference_tree_fit(cls, X, residual, max_depth, order=None, out=None):
    tree = reference_fit(X, residual, max_depth)
    if out is not None:
        out[:] = reference_predict(tree, X)
    return tree


# Three blocks of 150 rows: a cap of 200 samples the third round's pool of
# 300, and a two-block window cuts block 0 from it.
@pytest.mark.parametrize("shape, options", [
    pytest.param(shape, options, id=shape + suffix) for suffix, options in (
        ("", {}), ("-capped", {"subsample_cap": 200}), ("-sliding-window", {"policy": "sliding-window"}))
    for shape in ("A", "D")])
def test_boosting_matches_reference_fit(shape, options, monkeypatch):
    ds = generate_drift_stream(desk_spec(shape, 450, n_blocks=3, drift="gradual",
                                         drift_magnitude=1.0, seed=5))
    X = transform_rows(ds.schema, ds.rows, fit_dataset_encoders(ds.schema, ds.rows, ds.labels))
    y = np.asarray(ds.labels, float)
    cfg = BaselineConfig(initial_trees=6, trees_per_block=3, max_depth=4,
                         learning_rate=0.3, seed=5, **options)

    def grow():
        (a0, a1), (b0, b1), (c0, c1) = plan_blocks(len(ds), 3)
        ens = fit_initial(X[a0:a1], y[a0:a1], cfg)
        ens = extend(ens, X[b0:b1], y[b0:b1], cfg)
        return extend(ens, X[c0:c1], y[c0:c1], cfg)

    got = grow()
    monkeypatch.setattr(RegressionTree, "fit", classmethod(reference_tree_fit))
    want = grow()
    assert got.n_trees == want.n_trees == 12
    for g, w in zip(got.trees, want.trees):
        assert_same_tree(g, w)
    assert np.array_equal(ensemble_margin(got, X), ensemble_margin(want, X))
    assert np.array_equal(got.pool.ids, want.pool.ids)
    assert np.array_equal(got.pool.margin, want.pool.margin)


# ---------------------------------------------------------------------------
# ensemble walk: every tree at once, against one tree at a time


def reference_predict(tree, X):
    node = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        active = np.nonzero(tree.feature[node] >= 0)[0]
        if active.size == 0:
            break
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def reference_margin(ensemble, X):
    margin = np.full(X.shape[0], ensemble.base_score)
    for tree, rate in zip(ensemble.trees, ensemble.tree_rates):
        margin += rate * reference_predict(tree, X)
    return margin


def random_ensemble(rng, width):
    trees = []
    for _ in range(int(rng.integers(0, 12))):
        if rng.random() < 0.25:
            trees.append(RegressionTree([-1], [0.0], [-1], [-1], [rng.normal()]))
            continue
        n = int(rng.integers(1, 120))
        X = np.round(rng.normal(size=(n, width)), 1)
        X[rng.random((n, width)) < 0.1] = np.nan
        residual = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, size=n)
        trees.append(RegressionTree.fit(X, residual, int(rng.integers(0, 6))))
    rates = tuple(float(r) for r in rng.uniform(0.01, 1.0, size=len(trees)))
    return BoostedEnsemble(base_score=float(rng.normal()), trees=tuple(trees),
                           tree_rates=rates, pool=TrainingPool.empty(width))


def test_one_walk_matches_tree_by_tree():
    rng = np.random.default_rng(21)
    for case in range(150):
        width = int(rng.integers(1, 7))
        ens = random_ensemble(rng, width)
        n = (0, 1, int(rng.integers(2, 300)))[case % 3]
        X = np.round(rng.normal(size=(n, width)), 1)
        X[rng.random((n, width)) < 0.1] = np.nan
        for view in (X, np.asfortranarray(X), np.repeat(X, 2, axis=1)[:, ::2]):
            assert np.array_equal(ensemble_margin(ens, view), reference_margin(ens, X))
        for tree in ens.trees:
            assert np.array_equal(tree.predict(X), reference_predict(tree, X))


def test_empty_ensemble_and_no_rows():
    rng = np.random.default_rng(5)
    empty = BoostedEnsemble(base_score=-0.7, trees=(), tree_rates=(),
                            pool=TrainingPool.empty(3))
    assert np.array_equal(ensemble_margin(empty, rng.normal(size=(4, 3))), np.full(4, -0.7))
    assert ensemble_margin(empty, np.zeros((0, 3))).shape == (0,)
    X = rng.normal(size=(50, 3))
    ens = fit_initial(X, (X[:, 0] > 0).astype(float), BaselineConfig(seed=5, **FAST))
    assert ensemble_margin(ens, np.zeros((0, 3))).shape == (0,)
    assert ens.trees[0].predict(np.zeros((0, 3))).shape == (0,)


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
    X = transform_rows(ds.schema, ds.rows, fit_dataset_encoders(ds.schema, ds.rows, ds.labels))
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
    ens = BoostedEnsemble(base_score=0.3, trees=(), tree_rates=(),
                          pool=TrainingPool.empty(2))
    scores = predict_scores(ens, np.random.default_rng(0).normal(size=(7, 2)))
    assert scores == pytest.approx(np.full(7, sigmoid(np.array([0.3]))[0]))


def test_manual_stump_scores():
    stump = RegressionTree(feature=[0, -1, -1], threshold=[0.0, 0.0, 0.0],
                           left=[1, -1, -1], right=[2, -1, -1],
                           value=[0.0, -2.0, 2.0])
    ens = BoostedEnsemble(base_score=0.0, trees=(stump,), tree_rates=(1.0,),
                          pool=TrainingPool.empty(1))
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
    X = transform_rows(ds.schema, ds.rows, fit_dataset_encoders(ds.schema, ds.rows, ds.labels))
    y = np.asarray(ds.labels, float)
    ranges = plan_blocks(len(ds), 3)
    cfg = BaselineConfig(seed=5, **FAST)
    (a0, a1), (b0, b1), _ = ranges
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
    assert ens.revealed_blocks == 4
    assert np.array_equal(ens.pool.ids, np.repeat([3, 4], 100))
    assert np.array_equal(ens.pool.X, X[300:500]) and np.array_equal(ens.pool.y, y[300:500])


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


# Blocks of unequal sizes; block 0 holds one class, and so do blocks 3 and 4,
# so a two-block window collapses to one class after block 4.
SINGLE_CLASS_BLOCKS = (0, 3, 4)


def drifting_blocks(seed, n_blocks=8):
    rng = np.random.default_rng(seed)
    blocks = []
    for b in range(n_blocks):
        X = np.round(rng.normal(size=(40 + 9 * b, 4)), 2)
        y = (X[:, 0] + 0.5 * rng.normal(size=X.shape[0]) > 0).astype(np.float64)
        blocks.append((X, np.full_like(y, float(b > 0)) if b in SINGLE_CLASS_BLOCKS else y))
    return blocks


@pytest.mark.parametrize("cap", [100_000, 50])
@pytest.mark.parametrize("policy", DRIFT_POLICIES)
def test_cached_margins_match_a_fresh_walk(policy, cap):
    cfg = BaselineConfig(initial_trees=4, trees_per_block=3, max_depth=3, learning_rate=0.3,
                         policy=policy, window_blocks=2, subsample_cap=cap, seed=3)
    blocks = drifting_blocks(3)
    ens, resets = None, 0
    for X, y in blocks:
        ens = fit_initial(X, y, cfg) if ens is None else extend(ens, X, y, cfg)
        resets += np.all(ens.pool.y == ens.pool.y[0])
        assert np.array_equal(ens.pool.margin, ensemble_margin(ens, ens.pool.X))
    # The first block, and a two-block window over blocks 3 and 4, hold one class.
    assert resets == (2 if policy == "sliding-window" else 1)
    assert len(set(ens.pool.ids.tolist())) == (2 if policy == "sliding-window" else len(blocks))


def test_extend_walks_past_trees_over_new_rows_only(monkeypatch):
    X, y = separable_data(n=400, seed=2)
    cfg = BaselineConfig(seed=2, **FAST)
    ens = fit_initial(X[:100], y[:100], cfg)
    walked = []
    fresh = baseline.ensemble_margin
    monkeypatch.setattr(baseline, "ensemble_margin",
                        lambda e, rows: walked.append(rows.shape[0]) or fresh(e, rows))
    for lo in (100, 200, 300):
        ens = extend(ens, X[lo:lo + 100], y[lo:lo + 100], cfg)
    assert walked == [100, 100, 100]


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
    for decay in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="decay must be in"):
            BaselineConfig(decay=decay)
    for smoothing in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="target smoothing must be"):
            BaselineConfig(target_smoothing=smoothing)
    assert BaselineConfig(decay=1.0, target_smoothing=0.0).decay == 1.0
    for field in ("cat_encoder", "mvc_encoder"):
        with pytest.raises(ValueError, match="'onehot' is not a valid EncoderKind"):
            BaselineConfig(**{field: "onehot"})
    for field, value in (("initial_trees", 2.5), ("max_depth", True), ("subsample_cap", "9"),
                         ("learning_rate", "0.1"), ("decay", True), ("policy", 3),
                         ("seed", None)):
        with pytest.raises(TypeError, match=f"^{field} must be"):
            BaselineConfig(**{field: value})
    typed = BaselineConfig(max_depth=np.int64(3), learning_rate=1, decay=np.float32(0.5))
    assert (type(typed.max_depth), type(typed.learning_rate), type(typed.decay)) == \
        (int, float, float)
    assert (typed.max_depth, typed.learning_rate, typed.decay) == (3, 1.0, 0.5)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        BaselineConfig(seed=-1)
    with pytest.raises(ValueError, match="^learning_rate must be a finite number, got an integer"):
        BaselineConfig(learning_rate=10**400)


@pytest.mark.parametrize("kind", list(EncoderKind))
def test_encoder_names_select_the_encoder(kind, monkeypatch):
    named = BaselineConfig(cat_encoder=kind.value, mvc_encoder=kind.value)
    assert named == BaselineConfig(cat_encoder=kind, mvc_encoder=kind)
    monkeypatch.setenv("DRIFTBENCH_BASELINE_CONFIG", f'{{"cat_encoder": "{kind.value}"}}')
    assert _config_from_env().cat_encoder is kind


# ---------------------------------------------------------------------------
# drift behavior end to end


def _post_drift_auc(predictor, spec):
    ds = generate_drift_stream(spec)
    trace = run_lifelong(ds, spec.n_blocks, predictor, budget_seconds=600)
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
    ranges = plan_blocks(len(ds), spec.n_blocks)
    cfg = BaselineConfig(cat_encoder=kind, seed=4, **FAST)
    pred = BaselinePredictor(cfg)
    trace = run_lifelong(ds, spec.n_blocks, pred, budget_seconds=600)
    assert trace.outcome == "completed"
    assert len(trace.steps) == spec.n_blocks - 1
    assert all(np.isfinite(s.auc) for s in trace.steps)
    lo, hi = ranges[0]
    first = fit_dataset_encoders(ds.schema, ds.rows[lo:hi], ds.labels[lo:hi],
                                 cat_kind=kind, smoothing=cfg.target_smoothing)
    assert pred.encoders == first


def test_non_finite_numeric_cell_is_a_predictor_error():
    spec = desk_spec("D", 600, n_blocks=5, drift="gradual", drift_magnitude=1.0, seed=4)
    ds = generate_drift_stream(spec)
    ranges = plan_blocks(len(ds), spec.n_blocks)
    j = next(j for j, (_, kind) in enumerate(ds.schema.columns)
             if kind is FeatureKind.NUMERICAL)
    name = ds.schema.columns[j][0]
    lo, hi = ranges[0]
    rows = tuple(row[:j] + ("inf",) + row[j + 1:] if lo <= i < hi and ds.labels[i] == 1
                 else row for i, row in enumerate(ds.rows))
    poisoned = ChronoDataset(ds.schema, rows, ds.labels)
    trace = run_lifelong(poisoned, spec.n_blocks, BaselinePredictor(BaselineConfig(seed=4, **FAST)),
                         budget_seconds=600)
    assert trace.outcome == OUTCOME_PREDICTOR_ERROR
    assert f"column {name!r}: 'inf' is not a finite number" in trace.error


def test_predict_before_learn_raises():
    pred = BaselinePredictor(BaselineConfig(**FAST))
    with pytest.raises(RuntimeError):
        pred.predict([("1.0",)])


# ---------------------------------------------------------------------------
# learn reuses the matrix predict built for the same block

# Cardinality far above the block size: every block brings unseen categories.
UNSEEN_SPEC = DriftGenSpec(n_rows=400, n_cat=3, n_num=2, n_mvc=1, n_time=1, n_blocks=5,
                           drift="gradual", drift_magnitude=1.0, cat_cardinality=400, seed=6)
TINY = dict(initial_trees=4, trees_per_block=2, max_depth=2, learning_rate=0.3)


def counting_transforms(monkeypatch):
    calls = []
    fresh = baseline.transform_rows
    monkeypatch.setattr(baseline, "transform_rows",
                        lambda schema, rows, enc: calls.append(len(rows))
                        or fresh(schema, rows, enc))
    return calls


def reference_learned_matrices(ds, ranges, config):
    """Each block's matrix and the final encoders by the plain route: grow
    every ordinal vocabulary over all of a block's cells, then encode it."""
    lo, hi = ranges[0]
    encoders = fit_dataset_encoders(ds.schema, ds.rows[lo:hi], ds.labels[lo:hi],
                                    cat_kind=config.cat_encoder, mvc_kind=config.mvc_encoder,
                                    smoothing=config.target_smoothing)
    matrices = []
    for lo, hi in ranges:
        for j, name in enumerate(ds.schema.names):
            if name in encoders and encoders[name].kind is EncoderKind.ORDINAL:
                encoders[name] = extend_ordinal(encoders[name], [r[j] for r in ds.rows[lo:hi]])
        matrices.append(transform_rows(ds.schema, ds.rows[lo:hi], encoders))
    return matrices, encoders


def test_every_block_brings_unseen_categories():
    ds = generate_drift_stream(UNSEEN_SPEC)
    cat = [j for j, (_, kind) in enumerate(ds.schema.columns) if kind is FeatureKind.CATEGORICAL]
    seen: set = set()
    for k, (lo, hi) in enumerate(plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)):
        cells = {(j, row[j]) for row in ds.rows[lo:hi] for j in cat}
        assert k == 0 or cells - seen, f"block {k} brings no unseen category"
        seen |= cells


def test_each_block_is_encoded_once_per_run(monkeypatch):
    ds = generate_drift_stream(UNSEEN_SPEC)
    n = UNSEEN_SPEC.n_blocks
    calls = counting_transforms(monkeypatch)
    trace = run_lifelong(ds, n, BaselinePredictor(BaselineConfig(**TINY)),
                         budget_seconds=600)
    assert trace.outcome == "completed"
    # Block 0 when learned, blocks 1..n-1 when scored; never again when revealed.
    assert len(calls) == n


def test_each_revealed_row_is_sorted_once_and_no_round_walks_its_sample(monkeypatch):
    ds = generate_drift_stream(UNSEEN_SPEC)
    n = UNSEEN_SPEC.n_blocks
    sizes = [hi - lo for lo, hi in plan_blocks(len(ds), n)]
    sorted_rows, walked = [], []
    fresh_sort, fresh_walk = baseline.presort, baseline._tree_outputs

    def sort(X, kept=None):
        sorted_rows.append(X.shape[0] - (0 if kept is None else kept.shape[1]))
        return fresh_sort(X, kept)

    monkeypatch.setattr(baseline, "presort", sort)

    def walk(trees, X):
        if trees and X.shape[0]:
            walked.append(X.shape[0])
        return fresh_walk(trees, X)

    monkeypatch.setattr(baseline, "_tree_outputs", walk)
    trace = run_lifelong(ds, n, BaselinePredictor(BaselineConfig(**TINY)),
                         budget_seconds=600)
    assert trace.outcome == "completed"
    # Blocks 0..n-2 are revealed, and each is sorted once, when it joins the
    # pool: its rows are the ones new to the kept order.
    assert sorted_rows == sizes[:-1]
    # Blocks 1..n-1 are walked when scored, and blocks 1..n-2 by the past
    # trees once more when revealed.  With no cap no row is left out of a
    # round's sample, so no other walk visits a row.
    want = []
    for k in range(1, n):
        want += [sizes[k]] * (2 if k < n - 1 else 1)
    assert walked == want


@pytest.mark.parametrize("mvc_kind", list(EncoderKind))
@pytest.mark.parametrize("cat_kind", list(EncoderKind))
def test_learning_a_scored_block_matches_learning_alone(cat_kind, mvc_kind):
    ds = generate_drift_stream(UNSEEN_SPEC)
    ranges = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)
    cfg = BaselineConfig(cat_encoder=cat_kind, mvc_encoder=mvc_kind, seed=6, **TINY)
    interleaved, alone = BaselinePredictor(cfg), BaselinePredictor(cfg)
    for k, (lo, hi) in enumerate(ranges):
        if k:
            interleaved.predict(ds.rows[lo:hi])
        interleaved.learn(ds.rows[lo:hi], ds.labels[lo:hi], ds.schema, 600.0)
        alone.learn(ds.rows[lo:hi], ds.labels[lo:hi], ds.schema, 600.0)
    matrices, encoders = reference_learned_matrices(ds, ranges, cfg)
    assert np.array_equal(interleaved.ensemble.pool.X, np.concatenate(matrices))
    assert np.array_equal(alone.ensemble.pool.X, np.concatenate(matrices))
    assert interleaved.encoders == alone.encoders == encoders
    assert interleaved.ensemble.n_trees == alone.ensemble.n_trees
    for got, want in zip(interleaved.ensemble.trees, alone.ensemble.trees):
        assert_same_tree(got, want)


def test_rows_read_back_from_a_file_reuse_the_scored_matrix(tmp_path, monkeypatch):
    ds = generate_drift_stream(UNSEEN_SPEC)
    (lo, hi), (nlo, nhi) = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)[:2]
    pred, alone = (BaselinePredictor(BaselineConfig(**TINY)) for _ in range(2))
    for p in (pred, alone):
        p.learn(ds.rows[lo:hi], ds.labels[lo:hi], ds.schema, 600.0)
    pred.predict(ds.rows[nlo:nhi])
    # As an external child sees it: the revealed block is read anew from a file.
    write_rows(tmp_path / "train.csv", ds.schema, ds.rows[nlo:nhi], ds.labels[nlo:nhi])
    write_schema(ds.schema, tmp_path / "schema.csv")
    revealed = load_dataset(tmp_path / "train.csv", tmp_path / "schema.csv")
    assert revealed.rows == ds.rows[nlo:nhi]
    assert revealed.rows[0] is not ds.rows[nlo] and revealed.rows[0][0] is not ds.rows[nlo][0]
    calls = counting_transforms(monkeypatch)
    pred.learn(revealed.rows, revealed.labels, ds.schema, 600.0)
    assert calls == []
    alone.learn(ds.rows[nlo:nhi], ds.labels[nlo:nhi], ds.schema, 600.0)
    assert np.array_equal(pred.ensemble.pool.X, alone.ensemble.pool.X)
    assert pred.encoders == alone.encoders


def test_learning_other_rows_than_the_scored_block_encodes_them_afresh(monkeypatch):
    ds = generate_drift_stream(UNSEEN_SPEC)
    ranges = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)
    cfg = BaselineConfig(**TINY)
    pred = BaselinePredictor(cfg)
    (lo, hi), (mlo, mhi), (nlo, nhi) = ranges[:3]
    pred.learn(ds.rows[lo:hi], ds.labels[lo:hi], ds.schema, 600.0)
    pred.predict(ds.rows[nlo:nhi])                     # scores block 2 ...
    calls = counting_transforms(monkeypatch)
    pred.learn(ds.rows[mlo:mhi], ds.labels[mlo:mhi], ds.schema, 600.0)   # ... learns block 1
    assert calls == [mhi - mlo]
    matrices, encoders = reference_learned_matrices(ds, ranges[:2], cfg)
    assert np.array_equal(pred.ensemble.pool.X, np.concatenate(matrices))
    assert pred.encoders == encoders


# SHA-256 of every `predict` output of one replay, in step order.  The cap
# of 150 binds once the pool holds two blocks of 100 rows, so the capped
# sample and the margins of the rows it leaves out are pinned too.
PREDICTION_PINS = {
    ("A", "grow-full-history", 100_000): "e962693e79da9cc0b59e6bc0f3a5243802c79473111492cfa750c979f66c82e2",
    ("A", "grow-full-history", 150): "df7d0c3ebd03e37bdf6fb935881e607d5e99f535e098367f8f010ea2cc3d6b9e",
    ("A", "sliding-window", 100_000): "fdd92d3c186b6b0b3d8ace27cfdda9e59d7edacb2e5dd5d514ce0cc4fa06a0c6",
    ("A", "sliding-window", 150): "d6cc2632b29307ee07c3cd3425275655ae977f75712c1e45b0a9bd51408300c1",
    ("A", "adaptive-lr", 100_000): "db97b8ffe384f29f120d8d1d8e7b5259ecc61b07f2906db609b3b6d027d66401",
    ("A", "adaptive-lr", 150): "dc7c4efce34ff5d736825bb16c2cdcbee8fe4d807318b435a78beccf34b3e66e",
    ("D", "grow-full-history", 100_000): "f2d95a46937e0fc6121da21c73407971bce54eb247c1aeedf0a158de02acb7e2",
    ("D", "grow-full-history", 150): "41e3215ac71b7f384de884fbc62792ca4d98dfd057578cec3c8ab952eff9d913",
    ("D", "sliding-window", 100_000): "d463c5a827dd08ad44f814f72beb1e5227b1f2e76f7164bdd42cde73c5786cf9",
    ("D", "sliding-window", 150): "f1d5cafcdd56f1028d2ae2c8ef35dfe767e2ef04746531b7bda566cf4c4d3b46",
    ("D", "adaptive-lr", 100_000): "b3ab1f4b18be0ce8cd8d264f30fdf932271cd60ea6bc3be385c7dff3ea39127e",
    ("D", "adaptive-lr", 150): "11705d9f2227483fac577ef1d999ab273bc4b83c30570419793d47353de0824f",
}


@pytest.mark.parametrize("cap", [100_000, 150])
@pytest.mark.parametrize("policy", DRIFT_POLICIES)
@pytest.mark.parametrize("shape", ["A", "D"])
def test_predictions_are_pinned(shape, policy, cap):
    ds = generate_drift_stream(desk_spec(shape, 600, n_blocks=6, drift="gradual",
                                         drift_magnitude=1.0, seed=8))
    pred = BaselinePredictor(BaselineConfig(policy=policy, subsample_cap=cap, seed=8, **FAST))
    digest = hashlib.sha256()
    ranges = plan_blocks(len(ds), 6)
    for (lo, hi), (nlo, nhi) in zip(ranges, ranges[1:]):
        pred.learn(ds.rows[lo:hi], ds.labels[lo:hi], ds.schema, 600.0)
        digest.update(pred.predict(ds.rows[nlo:nhi]).tobytes())
    assert digest.hexdigest() == PREDICTION_PINS[shape, policy, cap]
