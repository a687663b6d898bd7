import gc
import hashlib
import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    bin_columns,
    log_loss,
    predict_scores,
    select_training_pool,
    sigmoid,
)
from driftbench.data import (
    ChronoDataset,
    FeatureKind,
    load_dataset,
    plan_blocks,
    read_unlabeled,
    write_rows,
    write_schema,
)
from driftbench.encoding import extend_ordinal, fit_dataset_encoders, transform_rows
from driftbench.metrics import auc
from driftbench.harness import OUTCOME_PREDICTOR_ERROR, SubprocessPredictor, run_lifelong
from driftbench.synth import DriftGenSpec, desk_spec, generate_drift_stream

from test_data import all_rows, rows_of

FAST = dict(initial_trees=30, trees_per_block=8, max_depth=3, learning_rate=0.2)


def encode_all(ds):
    """The matrix of every row of ``ds``, with codes fitted on all of them."""
    block = ds.block(0, len(ds))
    return transform_rows(block, fit_dataset_encoders(block))


def toy_pool(rows_per_block=1000, n_blocks=10, width=2):
    ids = np.repeat(np.arange(n_blocks), rows_per_block)
    X = np.repeat(ids[:, None], width, axis=1).astype(float)
    return TrainingPool(X, np.zeros(ids.size), ids, -ids.astype(float))


def sampled(pool, cap, seed):
    """Features, labels and margins of the rows ``select_training_pool`` picks."""
    sample = pool.take(select_training_pool(pool, cap=cap, seed=seed, decay=0.8))
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


def assert_aligned(pool):
    """Every field holds one entry per row, and the margin tells the block."""
    assert pool.X.shape[0] == pool.y.size == pool.ids.size == pool.margin.size
    assert np.array_equal(pool.margin, -pool.ids)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pool_keeps_a_margin_per_row(data):
    width = data.draw(st.integers(1, 4), label="width")
    block = hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(width)), elements=CELLS)
    pool = TrainingPool.empty(width)
    for k, X in enumerate(data.draw(st.lists(block, min_size=1, max_size=6), label="blocks")):
        pool = pool.add(k, X, np.zeros(X.shape[0]), np.full(X.shape[0], -k, dtype=float))
        assert_aligned(pool)
        assert_aligned(pool.keep_last(data.draw(st.integers(1, k + 1), label="window")))
    cap = data.draw(st.integers(1, pool.ids.size), label="cap")
    pick = select_training_pool(pool, cap, seed=data.draw(st.integers(0, 99), label="seed"),
                                decay=0.8)
    assert np.array_equal(np.unique(pick), pick) and pick.size == cap
    assert_aligned(pool.take(pick))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_each_block_keeps_the_learners_invariants(data):
    # Single-class blocks included, under every policy, with the cap off or
    # binding: after block k the ensemble holds initial_trees + k *
    # trees_per_block trees and k + 1 loss curves, every block was binned
    # once, and every pool row's cached margin is a fresh walk's.
    width = data.draw(st.integers(1, 3), label="width")
    cfg = BaselineConfig(initial_trees=2, trees_per_block=1, max_depth=2, learning_rate=0.5,
                         policy=data.draw(st.sampled_from(DRIFT_POLICIES), label="policy"),
                         window_blocks=1 + data.draw(st.integers(0, 1), label="window"),
                         subsample_cap=data.draw(st.sampled_from([100_000, 3, 10, 40]),
                                                 label="cap"), seed=1)
    ens = None
    with pytest.MonkeyPatch.context() as mp:
        binned = counting_bins(mp)
        for k in range(data.draw(st.integers(1, 6), label="blocks")):
            X = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(width)),
                                     elements=CELLS), label="X")
            labels = data.draw(st.sampled_from(["zeros", "ones", "mixed"]), label="labels")
            y = (np.arange(X.shape[0]) % 2.0 if labels == "mixed"
                 else np.full(X.shape[0], float(labels == "ones")))
            ens = fit_initial(X, y, cfg) if ens is None else extend(ens, X, y, cfg)
            assert ens.n_trees == cfg.initial_trees + k * cfg.trees_per_block
            assert len(ens.loss_history) == k + 1
            assert len(binned) == k + 1
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
    # 64 distinct values, so no cut is thinned away: the gap around 0 is one.
    X[:, 0] = np.random.default_rng(1).choice(np.r_[-32:0, 1:33], size=X.shape[0])
    y = (X[:, 0] > 0).astype(np.float64)
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
# reference split searches: exact, and over bins one cut at a time


def reference_grow(X, residual, max_depth, best_split):
    """A tree grown node by node: ``best_split(idx, r, state)`` is None or
    the split's feature, threshold, the node's rows that go left and the
    states handed to its left and right children (the root's is None)."""
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def grow(node, idx, depth, state):
        r = residual[idx]
        value[node] = float(r.mean())
        if depth >= max_depth or idx.size < 2:
            return
        split = best_split(idx, r, state)
        if split is None:
            return
        j, thr, go_left, state_l, state_r = split
        node_l, node_r = new_node(), new_node()
        feature[node] = j
        threshold[node] = thr
        left[node] = node_l
        right[node] = node_r
        grow(node_l, idx[go_left], depth + 1, state_l)
        grow(node_r, idx[~go_left], depth + 1, state_r)

    root = new_node()
    grow(root, np.arange(X.shape[0]), 0, None)
    return RegressionTree(feature, threshold, left, right, value)


def reference_fit(X, residual, max_depth):
    """Exact greedy search: one stable sort per node and feature, every
    step between distinct values a cut, thresholds at the midpoints."""
    def best_split(idx, r, state):
        split = reference_best_split(X[idx], r)
        return None if split is None else (*split, X[idx, split[0]] <= split[1], None, None)

    return reference_grow(X, residual, max_depth, best_split)


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


def reference_binned_fit(X, residual, max_depth):
    """The histogram search by its definition, one node, column and cut of
    ``bin_columns(X)`` at a time: the rows with codes up to the cut go left.

    The root and the smaller child of each split (the left one when both
    are the same size) sum their rows' residuals per bin, in row order;
    the larger child's bins are its parent's minus its sibling's, and a
    bin it holds no row of sums to 0.0.  Prefix sums add the bins in turn.
    This is the order the search adds in: different cuts can have
    mathematically equal gains (a 3-row side and a 29-row side with
    mirrored sums), and another order of the same additions decides such
    a tie on the last bit.
    """
    codes, cuts = bin_columns(X)

    def histogram(idx, r):
        sums = [[0.0] * baseline._BINS for _ in range(codes.shape[0])]
        counts = [[0] * baseline._BINS for _ in range(codes.shape[0])]
        for j in range(codes.shape[0]):
            for b, x in zip(codes[j, idx].tolist(), r.tolist()):
                sums[j][b] += x
                counts[j][b] += 1
        return sums, counts

    def minus(parent, child):
        counts = [[p - c for p, c in zip(*pair)] for pair in zip(parent[1], child[1])]
        sums = [[p - c if k else 0.0 for p, c, k in zip(*pair)]
                for pair in zip(parent[0], child[0], counts)]
        return sums, counts

    def best_split(idx, r, hist):
        sums, counts = histogram(idx, r) if hist is None else hist
        n = idx.size
        total = r.sum()
        base = total * total / n
        best_gain, best = 0.0, None
        for j in range(codes.shape[0]):
            s_left, n_left, top, at = 0.0, 0, -np.inf, None
            for c in range(cuts.shape[1]):
                s_left += sums[j][c]
                n_left += counts[j][c]
                if 0 < n_left < n:
                    s_right = total - s_left
                    gain = s_left * s_left / n_left + s_right * s_right / (n - n_left) - base
                    if gain > top:
                        top, at = gain, c
            if at is not None and top > best_gain + 1e-12:
                best_gain, best = top, (j, at)
        if best is None:
            return None
        j, at = best
        go_left = codes[j, idx] <= at
        small_left = 2 * int(go_left.sum()) <= n
        small = go_left if small_left else ~go_left
        hist_small = histogram(idx[small], r[small])
        hist_large = minus((sums, counts), hist_small)
        hists = (hist_small, hist_large) if small_left else (hist_large, hist_small)
        return (j, float(cuts[j, at]), go_left, *hists)

    return reference_grow(X, residual, max_depth, best_split)


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


def one_scale(residual):
    """False for the cases whose residuals span many orders of magnitude:
    there the summation order decides between near-equal gains, and the
    exact search sums in another order than the binned one."""
    size = np.abs(residual[residual != 0])
    return size.size == 0 or size.max() < 1e6 * size.min()


def reference_bin_columns(X):
    """``bin_columns`` column by column: the distinct finite values by
    ``np.unique``, and each row's code by a search of the unsorted column.
    Between consecutive values ``a < b`` the cut is their midpoint, or ``a``
    where the midpoint is not in ``[a, b)``."""
    n, width = X.shape
    codes = np.empty((width, n), dtype=np.uint8)
    cuts = np.full((width, baseline._BINS - 1), np.inf)
    for j in range(width):
        col = X[:, j]
        values = np.unique(col[np.isfinite(col)])
        a, b = values[:-1], values[1:]
        with np.errstate(over="ignore"):
            mid = 0.5 * (a + b)
        mid = np.where((a <= mid) & (mid < b), mid, a)
        if mid.size > baseline._BINS - 1:
            mid = mid[np.arange(baseline._BINS - 1) * (mid.size - 1) // (baseline._BINS - 2)]
        cuts[j, :mid.size] = mid
        codes[j] = np.searchsorted(mid, col)
        codes[j, np.isnan(col)] = baseline._BINS - 1
    return codes, cuts


# Infinities, signed zeros, the far ends of the range (where the sum of
# two values overflows) and two adjacent floats, whose midpoint rounds
# onto 1.0.
EDGE_CELLS = st.sampled_from([-np.inf, np.inf, -0.0, 0.0, 1e308, -1e308, 1.5e308, -1.5e308,
                              1.0, 1.0 + 2**-52, -3.5, np.nan])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bin_columns_codes_agree_with_cuts(data):
    n = data.draw(st.integers(65, 160), label="rows")
    column = st.one_of(
        # Few distinct values, signed zeros and NaN: ties everywhere.
        hnp.arrays(np.float64, n, elements=CELLS),
        # A single value.
        st.sampled_from([-2.5, 0.0, 7.0, np.nan]).map(lambda v: np.full(n, v)),
        # More distinct values than bins.
        hnp.arrays(np.float64, n, elements=st.integers(-800, 800).map(lambda i: i / 8),
                   unique=True),
        # Exactly 64 distinct finite values, and NaN.
        st.permutations(range(n)).map(
            lambda p: np.where(np.asarray(p) % 65 == 64, np.nan, np.asarray(p) % 65 - 30.5)),
        hnp.arrays(np.float64, n, elements=EDGE_CELLS),
        # More distinct values than bins, between the infinities.
        hnp.arrays(np.float64, n, elements=st.one_of(
            EDGE_CELLS, st.integers(-800, 800).map(lambda i: i / 8))),
    )
    X = np.column_stack(data.draw(st.lists(column, min_size=1, max_size=4), label="columns"))
    codes, cuts = bin_columns(X)
    want_codes, want_cuts = reference_bin_columns(X)
    assert codes.tobytes() == want_codes.tobytes()
    assert cuts.tobytes() == want_cuts.tobytes()
    assert codes.dtype == np.uint8 and codes.shape == X.shape[::-1]
    assert cuts.shape == (X.shape[1], baseline._BINS - 1)
    assert codes.max() < baseline._BINS
    for j, col in enumerate(X.T):
        finite = cuts[j][np.isfinite(cuts[j])]
        assert np.all(np.diff(finite) > 0)
        assert np.all(cuts[j, finite.size:] == np.inf)
        # Cut c sends a row left exactly when its code is at most c.
        assert np.array_equal(codes[j][:, None] <= np.arange(cuts.shape[1]),
                              col[:, None] <= cuts[j])
        values = np.unique(col[np.isfinite(col)])
        if values.size <= baseline._BINS:
            # One cut between each two consecutive values.
            assert finite.size == max(values.size - 1, 0)
            assert np.all((values[:-1] <= finite) & (finite < values[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(EDGE_CELLS, st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-2, 2).map(lambda k: 1.0 + k * 2**-53)),
                min_size=1, max_size=baseline._BINS, unique=True))
@example([1 - 2**-53, 1.0, 1 + 2**-52])
@example([1e308, 1.5e308])
@example([-1.5e308, -1e308])
def test_distinct_values_get_distinct_codes(values):
    finite = np.array([v for v in values if np.isfinite(v)])
    # Each finite value twice, in two orders, beside any infinity or NaN drawn.
    col = np.concatenate([np.asarray(values, dtype=float), finite[::-1]])
    codes = bin_columns(col[:, None])[0][0]
    at = np.isfinite(col)
    assert np.unique(codes[at]).size == np.unique(col[at]).size


# 64 cells split every node's search into chunks of one or a few features.
@pytest.mark.parametrize("split_cells", [baseline._SPLIT_CELLS, 64])
def test_binned_fit_matches_reference_tree_for_tree(split_cells, monkeypatch):
    monkeypatch.setattr(baseline, "_SPLIT_CELLS", split_cells)
    rng = np.random.default_rng(split_cells)
    for _ in range(250):
        X, residual, depth = random_split_case(rng)
        assert_same_tree(RegressionTree.fit(X, residual, depth),
                         reference_binned_fit(X, residual, depth))


def node_rows(tree, X):
    """Each split node's rows, its depth and its children's rows, in the
    order the fit splits them: a node's subtree, left first, before its
    right sibling's."""
    splits = []

    def visit(node, rows, depth):
        if tree.feature[node] < 0:
            return
        go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
        splits.append((node, rows, depth, rows[go_left], rows[~go_left]))
        visit(tree.left[node], rows[go_left], depth + 1)
        visit(tree.right[node], rows[~go_left], depth + 1)

    visit(0, np.arange(X.shape[0]), 0)
    return splits


def test_only_the_smaller_child_is_scanned(monkeypatch):
    scanned = []
    fresh = baseline._histogram
    monkeypatch.setattr(baseline, "_histogram",
                        lambda codes, idx, r: scanned.append(idx) or fresh(codes, idx, r))
    rng = np.random.default_rng(29)
    split_trees = 0
    for _ in range(200):
        X, residual, depth = random_split_case(rng)
        scanned.clear()
        tree = RegressionTree.fit(X, residual, depth)
        # The root's rows, then for each split whose children are searched
        # (below max_depth, one of them with 2 rows or more) the smaller
        # child's, the left one on a tie.
        want = [np.arange(X.shape[0])] if X.shape[0] > 1 else []
        for _, _, d, rows_l, rows_r in node_rows(tree, X):
            if d + 1 < depth and max(rows_l.size, rows_r.size) > 1:
                want.append(rows_l if rows_l.size <= rows_r.size else rows_r)
        assert len(scanned) == len(want)
        for got, rows in zip(scanned, want):
            assert np.array_equal(got, rows)
        split_trees += tree.n_nodes > 3
    assert split_trees > 50


def test_a_threshold_is_the_first_cut_of_its_partition():
    # A bin that holds none of a node's rows adds exactly 0 to the sums of
    # the cuts after it, including in a histogram found by subtraction, so
    # the cut after an empty bin ties with the one before and loses: some
    # row of the node has the chosen cut's code.  Residuals over 16 orders
    # of magnitude make a subtraction leave a remainder in such a bin.
    rng = np.random.default_rng(31)
    for _ in range(1500):
        X, residual, depth = random_split_case(rng)
        residual = residual * 10.0 ** rng.integers(-8, 9, size=residual.size)
        codes, cuts = bin_columns(X)
        tree = RegressionTree.fit(X, residual, depth)
        for node, rows, _, _, _ in node_rows(tree, X):
            j = tree.feature[node]
            c = np.flatnonzero(cuts[j] == tree.threshold[node])[0]
            assert np.any(codes[j, rows] == c)


def test_binned_fit_matches_exact_search_on_few_values():
    # With at most 64 distinct values per column every midpoint is a cut,
    # so both searches weigh the same partitions; only the thresholds may
    # differ, each anywhere between the same two values.
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(400):
        X, residual, depth = random_split_case(rng)
        if (np.isnan(X).any() or not one_scale(residual)
                or max(np.unique(col).size for col in X.T) > baseline._BINS):
            continue
        got, want = RegressionTree.fit(X, residual, depth), reference_fit(X, residual, depth)
        for attr in ("feature", "left", "right", "value"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
        assert np.array_equal(reference_leaves(got, X), reference_leaves(want, X))
        checked += 1
    assert checked > 100


def test_fit_writes_each_rows_leaf_value():
    rng = np.random.default_rng(13)
    for _ in range(150):
        X, residual, depth = random_split_case(rng)
        out = np.full(X.shape[0], np.nan)
        tree = RegressionTree.fit(X, residual, depth, out=out)
        assert np.array_equal(out, tree.predict(X))


def reference_tree_fit(cls, X, residual, max_depth, bins=None, out=None):
    tree = reference_binned_fit(X, residual, max_depth)
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
    X = encode_all(ds)
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


def reference_leaves(tree, X):
    node = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        active = np.nonzero(tree.feature[node] >= 0)[0]
        if active.size == 0:
            break
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return node


def reference_predict(tree, X):
    return tree.value[reference_leaves(tree, X)]


def reference_margin(ensemble, X):
    margin = np.full(X.shape[0], ensemble.base_score)
    for tree in ensemble.trees:
        margin += ensemble.learning_rate * reference_predict(tree, X)
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
    return BoostedEnsemble(base_score=float(rng.normal()), trees=tuple(trees),
                           learning_rate=float(rng.uniform(0.01, 1.0)),
                           pool=TrainingPool.empty(width))


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
    empty = BoostedEnsemble(base_score=-0.7, trees=(), learning_rate=0.1,
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
    # Boosted like any block: every residual is equal, so the tree is a leaf.
    assert ens.n_trees == 1 and ens.trees[0].n_nodes == 1
    assert np.all(predict_scores(ens, X) >= 0.9)


def test_fit_deterministic_given_seed():
    spec = DriftGenSpec(n_rows=600, n_cat=2, n_num=3, n_mvc=0, n_time=0,
                        n_blocks=3, seed=4)
    ds = generate_drift_stream(spec)
    X = encode_all(ds)
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
    ens = BoostedEnsemble(base_score=0.3, trees=(), learning_rate=0.1,
                          pool=TrainingPool.empty(2))
    scores = predict_scores(ens, np.random.default_rng(0).normal(size=(7, 2)))
    assert scores == pytest.approx(np.full(7, sigmoid(np.array([0.3]))[0]))


def test_manual_stump_scores():
    stump = RegressionTree(feature=[0, -1, -1], threshold=[0.0, 0.0, 0.0],
                           left=[1, -1, -1], right=[2, -1, -1],
                           value=[0.0, -2.0, 2.0])
    ens = BoostedEnsemble(base_score=0.0, trees=(stump,), learning_rate=1.0,
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


def test_labels_must_match_rows():
    X, y = separable_data(n=40)
    cfg = BaselineConfig(seed=1, **FAST)
    with pytest.raises(ValueError, match=r"^expected 10 labels, one per row, got shape \(11,\)$"):
        fit_initial(X[:10], y[:11], cfg)
    ens = fit_initial(X[:20], y[:20], cfg)
    with pytest.raises(ValueError, match=r"^expected 10 labels, one per row, got shape \(9,\)$"):
        extend(ens, X[20:30], y[20:29], cfg)
    with pytest.raises(ValueError, match=r"^expected rows of width 2, got shape \(10, 3\)$"):
        extend(ens, np.zeros((10, 3)), y[20:30], cfg)
    # The adapter's first block and a later one.
    ds = generate_drift_stream(DriftGenSpec(n_rows=60, n_cat=2, n_num=1, n_mvc=1, n_blocks=3,
                                            seed=0))
    (lo, hi), (nlo, nhi) = plan_blocks(len(ds), 3)[:2]
    pred = BaselinePredictor(cfg)
    with pytest.raises(ValueError, match=rf"^expected {hi - lo} labels, one per row, "
                                         rf"got shape \({hi - lo + 1},\)$"):
        pred.learn(replace(ds.block(lo, hi), labels=ds.labels[lo:hi + 1]), 600.0)
    pred.learn(ds.block(lo, hi), 600.0)
    later = ds.block(nlo, nhi)
    with pytest.raises(ValueError, match=rf"^expected {nhi - nlo} labels, one per row, "
                                         rf"got shape \({nhi - nlo - 1},\)$"):
        pred.learn(replace(later, labels=later.labels[:-1]), 600.0)


@pytest.mark.parametrize("shape", [(10,), (0, 2), (3, 2, 2)], ids=["1-D", "no-rows", "3-D"])
def test_blocks_that_are_not_2d_or_have_no_rows_are_refused(shape):
    X, y = separable_data(n=40)
    cfg = BaselineConfig(seed=1, **FAST)
    ens = fit_initial(X, y, cfg)
    message = "^" + re.escape(f"expected a 2-D block of at least one row, got shape {shape}") + "$"
    labels = np.arange(shape[0]) % 2.0
    with pytest.raises(ValueError, match=message):
        fit_initial(np.zeros(shape), labels, cfg)
    with pytest.raises(ValueError, match=message):
        extend(ens, np.zeros(shape), labels, cfg)


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
    X = encode_all(ds)
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
    assert grown.base_score == ens.base_score
    assert np.array_equal(ensemble_margin(ens, X[200:]), before)
    # The ensemble boosts at the rate it was fitted with, whatever the
    # config passed to a later extend says.
    regrown = extend(ens, X[200:300], y[200:300], replace(cfg, learning_rate=0.9))
    assert regrown.n_trees == grown.n_trees
    for got, want in zip(regrown.trees, grown.trees):
        assert_same_tree(got, want)
    assert np.array_equal(regrown.pool.margin, grown.pool.margin)
    assert regrown.learning_rate == cfg.learning_rate


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
def test_cached_margins_match_a_fresh_walk(policy, cap, monkeypatch):
    cfg = BaselineConfig(initial_trees=4, trees_per_block=3, max_depth=3, learning_rate=0.3,
                         policy=policy, window_blocks=2, subsample_cap=cap, seed=3)
    blocks = drifting_blocks(3)
    binned = counting_bins(monkeypatch)
    ens = None
    for X, y in blocks:
        ens = fit_initial(X, y, cfg) if ens is None else extend(ens, X, y, cfg)
        assert np.array_equal(ens.pool.margin, ensemble_margin(ens, ens.pool.X))
    # The first block, and a two-block window over blocks 3 and 4, hold one
    # class; they are boosted like the others, so every block is binned once.
    assert len(binned) == len(blocks)
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
    assert BaselineConfig(decay=1.0).decay == 1.0
    for field in ("cat_encoder", "mvc_encoder", "target_smoothing"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'$"):
            BaselineConfig(**{field: "ordinal"})
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


def test_non_finite_numeric_cell_is_a_predictor_error():
    spec = desk_spec("D", 600, n_blocks=5, drift="gradual", drift_magnitude=1.0, seed=4)
    ds = generate_drift_stream(spec)
    ranges = plan_blocks(len(ds), spec.n_blocks)
    j = next(j for j, (_, kind) in enumerate(ds.schema.columns)
             if kind is FeatureKind.NUMERICAL)
    name = ds.schema.columns[j][0]
    lo, hi = ranges[0]
    rows = tuple(row[:j] + ("inf",) + row[j + 1:] if lo <= i < hi and ds.labels[i] == 1
                 else row for i, row in enumerate(all_rows(ds)))
    poisoned = ChronoDataset.from_rows(ds.schema, rows, ds.labels)
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
                        lambda block, enc: calls.append(len(block)) or fresh(block, enc))
    return calls


def reference_learned_matrices(ds, ranges):
    """Each block's matrix and the final encoders by the plain route: encode
    a block as it was scored, then grow every vocabulary over all of its
    cells."""
    encoders = fit_dataset_encoders(ds.block(*ranges[0]))
    matrices = []
    for lo, hi in ranges:
        block = ds.block(lo, hi)
        matrices.append(transform_rows(block, encoders))
        for j, name in enumerate(ds.schema.names):
            if name in encoders:
                encoders[name] = extend_ordinal(encoders[name], block.columns[j])
    return matrices, encoders


def test_every_block_brings_unseen_categories():
    ds = generate_drift_stream(UNSEEN_SPEC)
    cat = [j for j, (_, kind) in enumerate(ds.schema.columns) if kind is FeatureKind.CATEGORICAL]
    seen: set = set()
    for k, (lo, hi) in enumerate(plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)):
        columns = ds.block(lo, hi).columns
        cells = {(j, cell) for j in cat for cell in columns[j]}
        assert k == 0 or cells - seen, f"block {k} brings no unseen category"
        seen |= cells


def test_each_block_is_encoded_once_per_run(monkeypatch):
    ds = generate_drift_stream(UNSEEN_SPEC)
    n = UNSEEN_SPEC.n_blocks
    calls = counting_transforms(monkeypatch)
    fitted = []
    fresh_fit = baseline.fit_dataset_encoders
    monkeypatch.setattr(baseline, "fit_dataset_encoders",
                        lambda block: fitted.append(len(block)) or fresh_fit(block))
    trace = run_lifelong(ds, n, BaselinePredictor(BaselineConfig(**TINY)),
                         budget_seconds=600)
    assert trace.outcome == "completed"
    # Block 0 when learned, blocks 1..n-1 when scored; never again when revealed.
    assert len(calls) == n
    # Vocabularies are fitted on block 0 only, and grown from its codes on.
    lo, hi = plan_blocks(len(ds), n)[0]
    assert fitted == [hi - lo]


def counting_bins(monkeypatch):
    """The row count of every ``bin_columns`` call, in call order."""
    binned = []
    fresh = baseline.bin_columns
    monkeypatch.setattr(baseline, "bin_columns",
                        lambda X: binned.append(X.shape[0]) or fresh(X))
    return binned


def test_each_revealed_block_is_binned_once_and_no_round_walks_its_sample(monkeypatch):
    ds = generate_drift_stream(UNSEEN_SPEC)
    n = UNSEEN_SPEC.n_blocks
    sizes = [hi - lo for lo, hi in plan_blocks(len(ds), n)]
    walked = []
    fresh_walk = baseline._tree_outputs
    binned = counting_bins(monkeypatch)

    def walk(trees, X):
        if trees and X.shape[0]:
            walked.append(X.shape[0])
        return fresh_walk(trees, X)

    monkeypatch.setattr(baseline, "_tree_outputs", walk)
    trace = run_lifelong(ds, n, BaselinePredictor(BaselineConfig(**TINY)),
                         budget_seconds=600)
    assert trace.outcome == "completed"
    # Blocks 0..n-2 are revealed, and each round bins its sample once, for
    # all of its trees: with no cap, the whole pool so far.
    assert binned == np.cumsum(sizes[:-1]).tolist()
    # Blocks 1..n-1 are walked when scored, and a revealed block joins the
    # pool with the margins its scoring walked, so it is not walked again.
    # With no cap no row is left out of a round's sample, so no other walk
    # visits a row.
    assert walked == sizes[1:]


def test_learning_a_scored_block_matches_learning_alone():
    ds = generate_drift_stream(UNSEEN_SPEC)
    ranges = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)
    cfg = BaselineConfig(seed=6, **TINY)
    interleaved, alone = BaselinePredictor(cfg), BaselinePredictor(cfg)
    for k, (lo, hi) in enumerate(ranges):
        if k:
            interleaved.predict(ds.block(lo, hi))
        interleaved.learn(ds.block(lo, hi), 600.0)
        alone.learn(ds.block(lo, hi), 600.0)
    matrices, encoders = reference_learned_matrices(ds, ranges)
    assert np.array_equal(interleaved.ensemble.pool.X, np.concatenate(matrices))
    assert np.array_equal(alone.ensemble.pool.X, np.concatenate(matrices))
    assert interleaved.encoders == alone.encoders == encoders
    assert interleaved.ensemble.n_trees == alone.ensemble.n_trees
    for got, want in zip(interleaved.ensemble.trees, alone.ensemble.trees):
        assert_same_tree(got, want)


def test_a_refused_learn_leaves_the_predictor_as_it_was():
    # A learn refused for its labels grew the vocabularies and dropped the
    # scored block before the labels were checked, so the retry trained on
    # another matrix than an uninterrupted run.
    ds = generate_drift_stream(UNSEEN_SPEC)
    ranges = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)
    cfg = BaselineConfig(seed=6, **TINY)
    refused, uninterrupted = BaselinePredictor(cfg), BaselinePredictor(cfg)
    for k, (lo, hi) in enumerate(ranges[:-1]):
        block = ds.block(lo, hi)
        if k:
            refused.predict(block)
            uninterrupted.predict(block)
        with pytest.raises(ValueError, match="labels, one per row"):
            refused.learn(replace(block, labels=block.labels[:-1]), 600.0)
        refused.learn(block, 600.0)
        uninterrupted.learn(block, 600.0)
    assert np.array_equal(refused.ensemble.pool.X, uninterrupted.ensemble.pool.X)
    assert refused.encoders == uninterrupted.encoders
    last = ds.block(*ranges[-1])
    assert np.array_equal(refused.predict(last), uninterrupted.predict(last))


def test_a_refused_first_learn_leaves_the_predictor_empty():
    # The first block's vocabularies were kept although fit_initial refused
    # the block, so a predictor that had learned nothing held codes.
    ds = generate_drift_stream(UNSEEN_SPEC)
    block = ds.block(*plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)[0])
    pred = BaselinePredictor(BaselineConfig(**TINY))
    with pytest.raises(ValueError, match="labels, one per row"):
        pred.learn(replace(block, labels=block.labels[:-1]), 600.0)
    assert pred.encoders == {} and pred.ensemble is None
    with pytest.raises(RuntimeError, match="predict before any learn call"):
        pred.predict(block.unlabeled())


def test_a_frozen_predictor_keeps_its_first_block():
    ds = generate_drift_stream(UNSEEN_SPEC)
    ranges = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)
    cfg = BaselineConfig(**TINY)
    frozen = BaselinePredictor(cfg, freeze_after_initial=True)
    first_only = BaselinePredictor(cfg)
    first = ds.block(*ranges[0])
    frozen.learn(first, 600.0)
    first_only.learn(first, 600.0)
    for lo, hi in ranges[1:]:
        block = ds.block(lo, hi)
        scores = frozen.predict(block.unlabeled())
        assert np.array_equal(scores, first_only.predict(block.unlabeled()))
        frozen.learn(block, 600.0)
    assert frozen.encoders == fit_dataset_encoders(first)
    assert frozen.ensemble.n_trees == cfg.initial_trees


def test_rows_read_back_from_a_file_reuse_the_scored_matrix(tmp_path, monkeypatch):
    ds = generate_drift_stream(UNSEEN_SPEC)
    (lo, hi), (nlo, nhi) = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)[:2]
    pred, alone = (BaselinePredictor(BaselineConfig(**TINY)) for _ in range(2))
    for p in (pred, alone):
        p.learn(ds.block(lo, hi), 600.0)
    # As an external child sees them: the scored block is a view of the test
    # file's bytes, and the revealed block is read anew from the train file.
    write_rows(tmp_path / "test.csv", ds.schema, ds.block(nlo, nhi).unlabeled())
    scored = read_unlabeled(tmp_path / "test.csv", ds.schema)
    assert isinstance(scored.lines, memoryview)
    pred.predict(scored)
    write_rows(tmp_path / "train.csv", ds.schema, ds.block(nlo, nhi))
    write_schema(ds.schema, tmp_path / "schema.csv")
    revealed = load_dataset(tmp_path / "train.csv", tmp_path / "schema.csv")
    block = revealed.block(0, len(revealed))
    assert rows_of(block) == rows_of(ds.block(nlo, nhi))
    assert block.lines.obj is revealed.text and block.lines.obj is not ds.text
    calls = counting_transforms(monkeypatch)
    pred.learn(block, 600.0)
    assert calls == []
    alone.learn(ds.block(nlo, nhi), 600.0)
    assert np.array_equal(pred.ensemble.pool.X, alone.ensemble.pool.X)
    assert pred.encoders == alone.encoders


def test_a_value_is_unseen_in_the_block_that_brings_it():
    # Trained as scored: a value first seen in revealed block k is coded 0
    # in that block's pool rows, and has its own code from block k + 1 on.
    ds = generate_drift_stream(UNSEEN_SPEC)
    ranges = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)[:-1]
    pred = BaselinePredictor(BaselineConfig(**TINY))
    for k, (lo, hi) in enumerate(ranges):
        if k:
            pred.predict(ds.block(lo, hi))
        pred.learn(ds.block(lo, hi), 600.0)
    X = pred.ensemble.pool.X
    assert X.shape[0] == ranges[-1][1]
    rows = all_rows(ds)
    brought: dict = {}   # (column, value) -> the block that brought it
    unseen = coded_later = 0
    for j, name in enumerate(ds.schema.names):
        if name not in pred.encoders:
            continue
        for k, (lo, hi) in enumerate(ranges):
            for i in range(lo, hi):
                first = brought.setdefault((j, rows[i][j]), k)
                if 0 < first == k:
                    assert X[i, j] == 0
                    unseen += 1
                else:
                    assert X[i, j] == pred.encoders[name][rows[i][j]] >= 1
                    coded_later += first > 0
    assert unseen and coded_later


def test_the_baseline_scores_alike_over_the_wire_and_in_process(tmp_path, monkeypatch):
    # The child re-reads every block from a file and writes %.9f scores.
    options = dict(TINY, policy="sliding-window", seed=6)
    monkeypatch.setenv("DRIFTBENCH_BASELINE_CONFIG", json.dumps(options))
    ds = generate_drift_stream(UNSEEN_SPEC)
    ranges = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)
    wire = SubprocessPredictor([sys.executable, "-m", "driftbench.reference_predictor"],
                               workdir=tmp_path / "ref")
    inproc = BaselinePredictor(BaselineConfig(**options))
    try:
        for (lo, hi), (nlo, nhi) in zip(ranges, ranges[1:]):
            scores = []
            for pred in (wire, inproc):
                pred.learn(ds.block(lo, hi), 600.0)
                scores.append(np.asarray(pred.predict(ds.block(nlo, nhi))))
            assert np.max(np.abs(scores[0] - scores[1])) <= 1e-9
    finally:
        wire.close()


def test_learning_other_rows_than_the_scored_block_encodes_them_afresh(monkeypatch):
    ds = generate_drift_stream(UNSEEN_SPEC)
    ranges = plan_blocks(len(ds), UNSEEN_SPEC.n_blocks)
    cfg = BaselineConfig(**TINY)
    pred = BaselinePredictor(cfg)
    (lo, hi), (mlo, mhi), (nlo, nhi) = ranges[:3]
    pred.learn(ds.block(lo, hi), 600.0)
    pred.predict(ds.block(nlo, nhi))                     # scores block 2 ...
    calls = counting_transforms(monkeypatch)
    pred.learn(ds.block(mlo, mhi), 600.0)                # ... learns block 1
    assert calls == [mhi - mlo]
    matrices, encoders = reference_learned_matrices(ds, ranges[:2])
    assert np.array_equal(pred.ensemble.pool.X, np.concatenate(matrices))
    assert pred.encoders == encoders


# SHA-256 of every `predict` output of one replay, in step order.  The cap
# of 150 binds once the pool holds two blocks of 100 rows, so the capped
# sample and the margins of the rows it leaves out are pinned too.
PREDICTION_PINS = {
    ("A", "grow-full-history", 100_000): "e2fce4a1b1ee1198374bee6b7e7b0450a889ca83c28adeb2d2cd324c68418c98",
    ("A", "grow-full-history", 150): "736de77c080c0a8ee48d4a434e26fb6717f54e2c622f83f24ec2cd5c4e540871",
    ("A", "sliding-window", 100_000): "4480e857496bec6ab5d07c4d4c8a2880d7bd2e268da8cce144247bd55e1a090a",
    ("A", "sliding-window", 150): "44f10c0d22bbf9460a6ede559d9056d3934b9810b2e2d76abcffe68541cb6edd",
    ("D", "grow-full-history", 100_000): "28e04e865f5779c118aa21c455b3a0e047354c4f922bb590541481a3c860b447",
    ("D", "grow-full-history", 150): "5308c3df46047eb68dcd5ade83207795dd1751a52a09fa424c1ed929be0ff685",
    ("D", "sliding-window", 100_000): "9b20759d13eb60c17d892b8c37c9ad407f9f9907131965db8d929aed9c9ee807",
    ("D", "sliding-window", 150): "d9eed0f789222dc1a8370a52c6197a9081958da24e61c79536ccebd8c3719b86",
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
        pred.learn(ds.block(lo, hi), 600.0)
        digest.update(pred.predict(ds.block(nlo, nhi)).tobytes())
    assert digest.hexdigest() == PREDICTION_PINS[shape, policy, cap]
