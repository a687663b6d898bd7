"""Incrementally grown gradient-boosted tree ensemble with subsampling.

The ensemble starts with ``initial_trees`` weak learners fitted on the
first labeled block and appends ``trees_per_block`` more each time a block
is revealed.  Each weak learner is a regression tree fitted to the negative
gradient of the logistic loss (the residual ``y - p``) on a capped,
policy-driven subsample of the retained history.  Two drift policies are
available:

* ``grow-full-history`` -- keep every block, subsample with recency bias;
* ``sliding-window``    -- train only on the rows of the last
  ``window_blocks`` blocks (trees fitted before the window keep voting).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import Block, check_field_types
from .encoding import extend_ordinal, fit_dataset_encoders, transform_rows

DRIFT_POLICIES = ("grow-full-history", "sliding-window")

_PRIOR_CLIP = 1e-6


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _prior_logit(y: np.ndarray) -> float:
    p = float(np.clip(np.mean(y), _PRIOR_CLIP, 1.0 - _PRIOR_CLIP))
    return float(np.log(p / (1.0 - p)))


@dataclass(frozen=True)
class BaselineConfig:
    initial_trees: int = 100          # weak learners fitted on block 0
    trees_per_block: int = 20         # weak learners appended per revealed block
    max_depth: int = 4
    learning_rate: float = 0.1
    subsample_cap: int = 100_000      # max rows used by any single fit call
    policy: str = "grow-full-history"
    window_blocks: int = 2
    # A capped sample draws rows without replacement in proportion to
    # decay ** age (age in blocks); sliding-window weights its rows equally.
    decay: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.initial_trees < 1 or self.trees_per_block < 1:
            raise ValueError("tree counts must be >= 1")
        if self.max_depth < 1:
            raise ValueError("tree depth must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning rate must be in (0, 1]")
        if self.subsample_cap < 1:
            raise ValueError("subsample cap must be >= 1")
        if self.window_blocks < 1:
            raise ValueError("window must span >= 1 block")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError(f"decay must be in (0, 1], got {self.decay!r}")
        if self.policy not in DRIFT_POLICIES:
            raise ValueError(f"policy must be one of {DRIFT_POLICIES}, got {self.policy!r}")


#: Most cells (features x node rows) one histogram pass holds at once;
#: bounds the scratch memory of wide nodes.
_SPLIT_CELLS = 1 << 15

#: Bin codes per column: at most ``_BINS - 1`` cuts, and NaN's code past them.
_BINS = 64


def bin_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's rows as bin codes: a ``(features, rows)`` block of
    ``uint8`` codes and a ``(features, _BINS - 1)`` table of cuts padded
    with ``inf``.

    A column's cuts are the midpoints between its consecutive distinct
    finite values ``a < b``, or ``a`` itself where the midpoint does not
    fall in ``[a, b)`` (it rounds onto ``b``, or ``a + b`` overflows),
    thinned evenly to ``_BINS - 1`` when there are more.  A
    row's code is the number of cuts below its value, so cut ``c`` sends a
    row left exactly when ``x <= cuts[j, c]``, as ``_tree_outputs`` routes
    it.  NaN takes the last code, past every cut, so it goes right.  Each
    column is sorted once: its midpoints are read off the sorted values,
    which are then coded in order and scattered back to their rows.
    """
    n, width = X.shape
    codes = np.empty((width, n), dtype=np.uint8)
    cuts = np.full((width, _BINS - 1), np.inf)
    for j in range(width):
        order = X[:, j].argsort()
        col = X[order, j]
        # NaN sorts last, and the infinities just inside it and first.
        lo = np.searchsorted(col, -np.inf, side="right")
        hi, nan_at = np.searchsorted(col, [np.inf, np.nan])
        finite = col[lo:hi]
        step = finite[:-1] != finite[1:]
        a, b = finite[:-1][step], finite[1:][step]
        with np.errstate(over="ignore"):
            mid = 0.5 * (a + b)
        mid = np.where((a <= mid) & (mid < b), mid, a)
        if mid.size > _BINS - 1:
            mid = mid[np.arange(_BINS - 1) * (mid.size - 1) // (_BINS - 2)]
        cuts[j, :mid.size] = mid
        code = np.searchsorted(mid, col)
        code[nan_at:] = _BINS - 1
        codes[j, order] = code
    return codes, cuts


class RegressionTree:
    """Axis-aligned regression tree fitted to the residuals by variance
    reduction over binned columns: each searched node holds a histogram
    (per-bin residual sums and row counts over the bins of
    ``bin_columns``) and splits at the best cut between bins, whose
    threshold is a midpoint between distinct values of the column.  Only
    the root and the smaller child of each split sum their rows into a
    histogram; the larger child's is its parent's minus its sibling's.

    Nodes live in parallel arrays; ``feature[i] < 0`` marks node ``i`` as a
    leaf carrying ``value[i]``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)

    @classmethod
    def fit(cls, X: np.ndarray, residual: np.ndarray, max_depth: int,
            bins: tuple[np.ndarray, np.ndarray] | None = None,
            out: np.ndarray | None = None) -> "RegressionTree":
        """Fit one tree to ``residual``; ``bins`` is ``bin_columns(X)``,
        computed here when not given.  When ``out`` is given, each row's
        leaf value is written to it as the rows are partitioned: what
        ``predict(X)`` would return, without a second walk.

        A child at ``max_depth`` or with fewer than 2 rows is a leaf and
        gets no histogram.  Otherwise the smaller child (the left one when
        both are the same size) is summed from its rows, and the parent's
        histogram, no longer needed, becomes the larger child's by
        subtraction.  Counts subtract exactly; a bin the larger child
        holds no row of has its sum set to 0.0, as a sum over no rows is.
        """
        codes, cuts = bin_columns(X) if bins is None else bins
        feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
        idx = np.arange(codes.shape[1])
        r = residual.take(idx)
        hist = _histogram(codes, idx, r) if max_depth > 0 and idx.size > 1 else None
        # The left child is pushed last and so grown first: nodes are
        # numbered in preorder, each split's children next to each other.
        # A node's histogram is None when it is not searched.
        stack = [(0, idx, r, 0, hist)]
        while stack:
            node, idx, r, depth, hist = stack.pop()
            total = r.sum()
            value[node] = float(total / idx.size)  # r.mean(), without a second sum
            split = None if hist is None else _best_split(*hist, total, idx.size)
            if split is None:
                if out is not None:
                    out[idx] = value[node]
                continue
            j, c = split
            at_left = codes[j].take(idx) <= c
            node_l = len(feature)
            feature[node], threshold[node] = j, float(cuts[j, c])
            left[node], right[node] = node_l, node_l + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            value += [0.0, 0.0]
            idx_l, idx_r = idx[at_left], idx[~at_left]
            r_l, r_r = r[at_left], r[~at_left]
            hist_l = hist_r = None
            if depth + 1 < max_depth and max(idx_l.size, idx_r.size) > 1:
                small_left = idx_l.size <= idx_r.size
                small = (_histogram(codes, idx_l, r_l) if small_left
                         else _histogram(codes, idx_r, r_r))
                sums, counts = hist
                sums -= small[0]
                counts -= small[1]
                sums[counts == 0] = 0.0
                if min(idx_l.size, idx_r.size) < 2:
                    small = None
                hist_l, hist_r = (small, hist) if small_left else (hist, small)
            stack.append((node_l + 1, idx_r, r_r, depth + 1, hist_r))
            stack.append((node_l, idx_l, r_l, depth + 1, hist_l))
        return cls(feature, threshold, left, right, value)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _tree_outputs((self,), X)[0]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _histogram(codes: np.ndarray, idx: np.ndarray, r: np.ndarray):
    """The histogram of the rows ``idx`` with residuals ``r``: per-bin
    residual sums and row counts, two ``(features, _BINS)`` blocks.

    Each bin's residuals are added in row order, and columns are read
    ``_SPLIT_CELLS`` cells at a time.
    """
    width, n = codes.shape[0], idx.size
    sums = np.empty((width, _BINS))
    counts = np.empty((width, _BINS))
    step = max(1, _SPLIT_CELLS // n)
    for lo in range(0, width, step):
        part = codes[lo:lo + step].take(idx, axis=1)
        k = part.shape[0]
        keys = (part + np.arange(0, k * _BINS, _BINS)[:, None]).ravel()
        sums[lo:lo + k] = np.bincount(keys, np.broadcast_to(r, part.shape).ravel(),
                                      k * _BINS).reshape(k, _BINS)
        counts[lo:lo + k] = np.bincount(keys, minlength=k * _BINS).reshape(k, _BINS)
    return sums, counts


def _best_split(sums: np.ndarray, counts: np.ndarray, total: float, n: int):
    """Best (feature, cut) by variance reduction for a node of ``n`` rows
    whose residuals add up to ``total`` and whose histogram is ``sums``
    and ``counts``, or None.

    Maximizing sum-of-squared-child-sums over child sizes is equivalent to
    maximizing variance reduction for a fixed node, so prefix sums over
    each column's bins suffice.  Features are compared in index order; the
    first best cut wins.
    """
    base = total * total / n
    # Column c is cut c; the last, every bin on the left, is no cut.
    s_left = sums.cumsum(axis=1)
    n_left = counts.cumsum(axis=1)
    n_right = n - n_left
    # A cut with no row on one side is no split.
    empty = n_left * n_right == 0
    np.maximum(n_left, 1.0, out=n_left)
    np.maximum(n_right, 1.0, out=n_right)
    s_right = total - s_left
    gain = s_left
    gain *= s_left
    gain /= n_left
    s_right *= s_right
    s_right /= n_right
    gain += s_right
    gain -= base
    gain[empty] = -np.inf
    at = gain.argmax(axis=1)
    tops = gain[np.arange(gain.shape[0]), at]
    best_gain = 0.0
    best = None
    for f, (c, g) in enumerate(zip(at.tolist(), tops.tolist())):
        if g > best_gain + 1e-12:
            best_gain = g
            best = (f, c)
    return best


def _tree_outputs(trees: Sequence[RegressionTree], X: np.ndarray) -> np.ndarray:
    """Every tree's leaf value for every row, as a ``(trees, rows)`` block.

    All trees are walked at once: their node arrays are concatenated with
    offsets, and one node index per (tree, row) steps down a level per pass
    until every index rests on a leaf.
    """
    n_rows, width = X.shape
    if not trees or n_rows == 0:
        return np.zeros((len(trees), n_rows))
    offsets = np.cumsum([0] + [t.n_nodes for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + o for t, o in zip(trees, offsets)])
    right = np.concatenate([t.right + o for t, o in zip(trees, offsets)])
    value = np.concatenate([t.value for t in trees])
    cells = np.ascontiguousarray(X, dtype=np.float64).ravel()
    node = np.repeat(offsets, n_rows)
    row_at = np.tile(np.arange(0, n_rows * width, width), len(trees))
    live = np.flatnonzero(feature.take(node) >= 0)
    while live.size:
        cur = node.take(live)
        go_left = cells.take(row_at.take(live) + feature.take(cur)) <= threshold.take(cur)
        cur = np.where(go_left, left.take(cur), right.take(cur))
        node[live] = cur
        live = live[feature.take(cur) >= 0]
    return value.take(node).reshape(len(trees), n_rows)


def _add_trees(margin: np.ndarray, trees: Sequence[RegressionTree],
               rate: float, X: np.ndarray) -> np.ndarray:
    """``margin`` plus each tree's output times ``rate``, added in tree order."""
    for out in _tree_outputs(trees, X):
        margin += rate * out
    return margin


@dataclass(frozen=True, eq=False)
class TrainingPool:
    """Labeled rows retained across blocks, oldest first, with each row's
    block id in ``ids`` and its margin under the current ensemble in
    ``margin``.

    A pool is never partial: ``add`` takes a block's rows with their
    margins, and ``keep_last`` and ``take`` cut every field alike.  The
    pool keeps nothing derived from its rows; each boosting round bins its
    own sample.
    """

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray
    margin: np.ndarray

    @classmethod
    def empty(cls, width: int) -> "TrainingPool":
        return cls(np.empty((0, width)), np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))

    def add(self, block_id: int, X: np.ndarray, y: np.ndarray,
            margin: np.ndarray) -> "TrainingPool":
        ids = np.full(y.shape[0], block_id, dtype=np.int64)
        return TrainingPool(np.concatenate([self.X, X]), np.concatenate([self.y, y]),
                            np.concatenate([self.ids, ids]),
                            np.concatenate([self.margin, margin]))

    def keep_last(self, k: int) -> "TrainingPool":
        """The rows of the newest ``k`` blocks (block ids run without gaps)."""
        start = int(np.searchsorted(self.ids, self.ids[-1] - k, side="right"))
        return TrainingPool(self.X[start:], self.y[start:], self.ids[start:],
                            self.margin[start:])

    def take(self, rows: np.ndarray) -> "TrainingPool":
        """The rows ``rows`` (ascending ids) as a pool of their own.  Taking
        every row is the pool itself, with no copy."""
        if rows.size == self.ids.size:
            return self
        return TrainingPool(self.X[rows], self.y[rows], self.ids[rows], self.margin[rows])


def select_training_pool(pool: TrainingPool, cap: int, seed, *, decay: float) -> np.ndarray:
    """Ids of at most ``cap`` pool rows for one fit call, ascending: every
    row when the pool holds no more than ``cap``.

    Above the cap, rows are drawn without replacement in proportion to
    ``decay ** age`` (age in blocks, newest is 0) by taking the ``cap``
    largest keys ``age * log(decay) - log(E)``, one seeded standard
    exponential ``E`` a row (Efraimidis and Spirakis 2006); ``decay`` 1,
    which ``sliding-window`` uses, weights every row equally.  The keys are log-weights, so a weight too
    small for a float still orders rows by age.  Deterministic given the
    seed, which is anything ``np.random.default_rng`` takes; it is read
    only above the cap, so a pool below it never imports ``numpy.random``.
    """
    n = pool.X.shape[0]
    if n <= cap:
        return np.arange(n)
    draw = np.random.default_rng(seed).standard_exponential(n)
    with np.errstate(divide="ignore"):  # a draw of 0 is the key +inf: taken
        key = (pool.ids[-1] - pool.ids) * np.log(decay) - np.log(draw)
    pick = np.argpartition(key, n - cap)[n - cap:]
    pick.sort()  # keep chronological order inside the sample
    return pick


@dataclass(frozen=True, eq=False)
class BoostedEnsemble:
    """Immutable boosted ensemble; ``extend`` returns a grown copy and
    never touches existing trees.

    Scores are ``sigmoid(base_score + sum(learning_rate * tree_t(x)))``,
    tree outputs added in tree order.  After block 0 and k more revealed
    blocks the ensemble holds ``initial_trees + k * trees_per_block``
    trees and k + 1 loss curves exactly, under every policy and whatever
    classes a block holds.
    """

    base_score: float
    trees: tuple[RegressionTree, ...]
    learning_rate: float
    pool: TrainingPool
    loss_history: tuple[np.ndarray, ...] = ()

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return self.pool.X.shape[1]

    @property
    def revealed_blocks(self) -> int:
        """Id of the newest block taken in: 0 after the first block, -1 for
        the empty ensemble that ``fit_initial`` grows."""
        return int(self.pool.ids[-1]) if self.pool.ids.size else -1


def ensemble_margin(ensemble: BoostedEnsemble, X: np.ndarray) -> np.ndarray:
    """Raw additive score: the base score plus every tree's output times
    the learning rate, summed in tree order."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise ValueError(
            f"expected rows of width {ensemble.n_features}, got shape {X.shape}"
        )
    margin = np.full(X.shape[0], ensemble.base_score, dtype=np.float64)
    return _add_trees(margin, ensemble.trees, ensemble.learning_rate, X)


def predict_scores(ensemble: BoostedEnsemble, X: np.ndarray) -> np.ndarray:
    """Scores in (0, 1); deterministic and finite."""
    return sigmoid(ensemble_margin(ensemble, X))


def _boost(sample: TrainingPool, n_trees: int, rate: float, max_depth: int):
    """Fit ``n_trees`` trees in turn on ``sample``, each to the residual
    left by the ones before; returns the trees, the loss before and after
    each, and the sample's margins with every new tree added.  The sample
    is binned once, and every tree of the round splits on those bins."""
    trees: list[RegressionTree] = []
    y = sample.y
    margin = sample.margin.copy()
    p = sigmoid(margin)
    losses = [log_loss(y, p)]
    bins = bin_columns(sample.X)
    out = np.empty(y.shape[0])  # each row's leaf value in the newest tree
    for _ in range(n_trees):
        trees.append(RegressionTree.fit(sample.X, y - p, max_depth, bins, out))
        margin += rate * out
        p = sigmoid(margin)
        losses.append(log_loss(y, p))
    return trees, np.asarray(losses), margin


def _check_block(X: np.ndarray) -> None:
    """Refuse rows that are not a 2-D block of at least one row."""
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"expected a 2-D block of at least one row, got shape {X.shape}")


def fit_initial(X: np.ndarray, y: np.ndarray, config: BaselineConfig) -> BoostedEnsemble:
    """Fit the starting ensemble on the first labeled block.

    This is ``extend`` applied to an empty ensemble whose base score is the
    block's (clipped) log-odds and whose learning rate is the config's; the
    block's shape is checked before its width or its prior is read.  A
    single-class block is boosted like any other: every residual is equal,
    so no split gains and its trees are leaves.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_block(X)
    empty = BoostedEnsemble(_prior_logit(y), (), config.learning_rate,
                            TrainingPool.empty(X.shape[1]))
    return extend(empty, X, y, config)


def extend(ensemble: BoostedEnsemble, X_new: np.ndarray, y_new: np.ndarray,
           config: BaselineConfig, margin: np.ndarray | None = None) -> BoostedEnsemble:
    """Grow the ensemble with the newly revealed block.

    Appends ``initial_trees`` trees for block 0 and ``trees_per_block`` for
    every later block, fitted on the policy's training pool, whatever
    classes it holds, at the ensemble's learning rate; prior trees and the
    base score are untouched.  A block that is not 2-D or has no rows is
    refused.  The new rows go through the ensemble once, as they join the
    pool, unless the caller passes their ``margin``, which must be
    ``ensemble_margin(ensemble, X_new)`` (as scoring the block computed
    it).  The round's sample is binned once and its trees split on those
    bins; the sampled rows' margins come out of boosting grown, and only
    rows left out of a capped sample walk the new trees.
    """
    X_new = np.asarray(X_new, dtype=np.float64)
    y_new = np.asarray(y_new, dtype=np.float64)
    _check_block(X_new)
    if margin is None:
        margin = ensemble_margin(ensemble, X_new)  # checks the rows' width
    if y_new.shape != (X_new.shape[0],):
        raise ValueError(f"expected {X_new.shape[0]} labels, one per row, got shape {y_new.shape}")
    k = ensemble.revealed_blocks + 1
    pool = ensemble.pool.add(k, X_new, y_new, margin)
    if config.policy == "sliding-window":
        pool = pool.keep_last(config.window_blocks)

    margin = pool.margin  # new with this pool: grown in place
    pick = select_training_pool(
        pool, config.subsample_cap, (config.seed, k),
        decay=1.0 if config.policy == "sliding-window" else config.decay,
    )
    rate = ensemble.learning_rate
    n_trees = config.initial_trees if k == 0 else config.trees_per_block
    trees, losses, boosted = _boost(pool.take(pick), n_trees, rate, config.max_depth)
    rest = np.delete(np.arange(margin.size), pick)
    margin[pick] = boosted
    margin[rest] = _add_trees(margin[rest], trees, rate, pool.X[rest])
    return replace(
        ensemble,
        trees=ensemble.trees + tuple(trees),
        pool=pool,
        loss_history=ensemble.loss_history + (losses,),
    )


class BaselinePredictor:
    """Adapter wrapping the boosted ensemble for the lifelong harness.

    Each categorical column's codes grow their vocabulary with each revealed
    block, and the ensemble is extended per policy.
    A revealed block trains on the matrix it was scored with: a value first
    seen in it is coded unseen (0) there, in training as in scoring, and
    has its own code from the next block on.  It joins the training pool
    once and whole, with its rows' margins under the past trees, so no pool
    row lacks its margin, and each boosting round bins its sample once for
    the binned split search of all its trees.
    ``_read`` reads a block once, and ``predict`` keeps its read keyed by
    the block's label-free lines, because the lifelong loop reveals the
    same rows at the next ``learn``, which then trains on that matrix and
    those margins unchanged, splits no text and walks no past tree.  The
    lines' bytes are the key, not where the block came from, so rows an
    external program reads back from the judge's train file are recognised
    too.  The scored block's lines are a view, so the key is a copy of
    them, and the revealed block's label-free lines are ``bytes`` too, so
    the check is one ``memcmp``.  Each block is
    read by its own schema and trained on its own labels.  ``learn`` sets
    the ensemble, the vocabularies and the kept read in one assignment,
    after the ensemble has taken the block in, so a ``learn`` that is
    refused (labels not one per row, no rows) leaves the predictor as it was.
    """

    def __init__(self, config: BaselineConfig | None = None,
                 freeze_after_initial: bool = False):
        self.config = config if config is not None else BaselineConfig()
        self.freeze_after_initial = freeze_after_initial
        self.encoders: dict[str, dict[str, int]] = {}
        self.ensemble: BoostedEnsemble | None = None
        self._scored: tuple | None = None   # the read of the last block scored

    def _read(self, block: Block):
        """The block's label-free lines, its matrix, its margins under the
        ensemble and the vocabularies grown in row order by the cells the
        matrix codes 0: the only ones that can be new.  Before the first
        ``learn`` the read is never kept, so it has no lines and no
        margins, and its vocabularies are the block's own."""
        if self.ensemble is None:
            encoders = fit_dataset_encoders(block)
            return None, transform_rows(block, encoders), None, encoders
        X = transform_rows(block, self.encoders)
        lines = bytes(block.feature_lines)   # a memoryview compares a byte at a time
        encoders, columns = dict(self.encoders), block.columns
        for j, name in enumerate(block.schema.names):
            unseen = np.flatnonzero(X[:, j] == 0).tolist() if name in encoders else ()
            if unseen:
                encoders[name] = extend_ordinal(encoders[name], [columns[j][i] for i in unseen])
        return lines, X, ensemble_margin(self.ensemble, X), encoders

    def learn(self, block: Block, remaining_budget_seconds: float) -> None:
        if self.freeze_after_initial and self.ensemble is not None:
            return
        read = self._scored
        if read is None or read[0] != block.feature_lines:
            read = self._read(block)
        _, X, margin, encoders = read
        ensemble = (fit_initial(X, block.labels, self.config) if self.ensemble is None
                    else extend(self.ensemble, X, block.labels, self.config, margin))
        self.ensemble, self.encoders, self._scored = ensemble, encoders, None

    def predict(self, block: Block) -> np.ndarray:
        if self.ensemble is None:
            raise RuntimeError("predict before any learn call")
        self._scored = self._read(block)
        return sigmoid(self._scored[2])
