"""Incrementally grown gradient-boosted tree ensemble with subsampling.

The ensemble starts with ``initial_trees`` weak learners fitted on the
first labeled block and appends ``trees_per_block`` more each time a block
is revealed.  Each weak learner is a regression tree fitted to the negative
gradient of the logistic loss (the residual ``y - p``) on a capped,
policy-driven subsample of the retained history.  Three drift policies are
available:

* ``grow-full-history`` -- keep every block, subsample with recency bias;
* ``sliding-window``    -- retain only the last ``window_blocks`` blocks;
* ``adaptive-lr``       -- full history, learning rate decayed per block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import FeatureSchema
from .encoding import (
    EncoderKind,
    FittedEncoder,
    extend_ordinal,
    fit_dataset_encoders,
    transform_rows,
)

DRIFT_POLICIES = ("grow-full-history", "sliding-window", "adaptive-lr")

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
    decay: float = 0.8                # recency sampling weight and lr decay base
    seed: int = 0
    cat_encoder: EncoderKind = EncoderKind.ORDINAL
    mvc_encoder: EncoderKind | None = None
    target_smoothing: float = 10.0

    def __post_init__(self) -> None:
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
        if self.policy not in DRIFT_POLICIES:
            raise ValueError(f"policy must be one of {DRIFT_POLICIES}, got {self.policy!r}")


#: Most cells (features x node rows) one split-search pass holds at once;
#: bounds the scratch memory of wide nodes.
_SPLIT_CELLS = 1 << 15


def presort(X: np.ndarray) -> np.ndarray:
    """Each column's row order, ties in row order: a ``(features, rows)``
    int32 block, so that ``X[order[j], j]`` is column ``j`` sorted."""
    return np.argsort(X.T, axis=1, kind="stable").astype(np.int32)


class RegressionTree:
    """Axis-aligned regression tree fitted to the residuals by variance
    reduction: exact greedy splits over columns presorted once per boosting
    round, with midpoint thresholds.

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
            order: np.ndarray | None = None) -> "RegressionTree":
        """Fit one tree to ``residual``; ``order`` is ``presort(X)``, computed
        here when not given.

        Each node holds its rows twice: ascending (``idx``, for its value)
        and sorted per feature (``srt``, for its split search).  A child's
        ``srt`` is a stable filter of its parent's, which is the child's own
        stable sort, so no node sorts again.
        """
        if order is None:
            order = presort(X)
        n_features = order.shape[0]
        feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
        # The left child is pushed last and so grown first: nodes are
        # numbered in preorder, each split's children next to each other.
        stack = [(0, np.arange(X.shape[0]), order, 0)]
        while stack:
            node, idx, srt, depth = stack.pop()
            r = residual[idx]
            value[node] = float(r.mean())
            if depth >= max_depth or idx.size < 2:
                continue
            split = _best_split(X, residual, srt, r.sum())
            if split is None:
                continue
            j, thr = split
            go_left = X[:, j] <= thr
            keep = go_left[srt].ravel()
            at_left = go_left[idx]
            idx_l, idx_r = idx[at_left], idx[~at_left]
            node_l = len(feature)
            feature[node], threshold[node] = j, thr
            left[node], right[node] = node_l, node_l + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            value += [0.0, 0.0]
            stack.append((node_l + 1, idx_r,
                          srt.compress(~keep).reshape(n_features, idx_r.size), depth + 1))
            stack.append((node_l, idx_l,
                          srt.compress(keep).reshape(n_features, idx_l.size), depth + 1))
        return cls(feature, threshold, left, right, value)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int32)
        while True:
            feats = self.feature[node]
            active = np.nonzero(feats >= 0)[0]
            if active.size == 0:
                break
            cur = node[active]
            go_left = X[active, self.feature[cur]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _best_split(X: np.ndarray, residual: np.ndarray, srt: np.ndarray, total: float):
    """Best (feature, midpoint threshold) by variance reduction, or None.

    ``srt`` holds the node's rows sorted per feature, and ``total`` is the
    sum of their residuals in ascending row order.  Maximizing
    sum-of-squared-child-sums over child sizes is equivalent to maximizing
    variance reduction for a fixed node, so prefix sums along each
    feature's order suffice.  Features are searched ``_SPLIT_CELLS`` cells
    at a time and compared in index order; the first best cut wins.
    """
    n_features, n = srt.shape
    base = total * total / n
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    step = max(1, _SPLIT_CELLS // n)
    best_gain = 0.0
    best = None
    for lo in range(0, n_features, step):
        rows = srt[lo:lo + step]
        vs = X[rows, np.arange(lo, lo + rows.shape[0])[:, None]]
        s_left = np.cumsum(residual[rows[:, :-1]], axis=1)
        s_right = total - s_left
        gain = s_left * s_left
        gain /= n_left
        s_right *= s_right
        s_right /= n_right
        gain += s_right
        gain -= base
        # Only a step between distinct values is a cut.
        gain.ravel()[np.flatnonzero(~(vs[:, :-1] < vs[:, 1:]))] = -np.inf
        at = gain.argmax(axis=1)
        tops = gain[np.arange(at.size), at]
        for f, (i, g) in enumerate(zip(at.tolist(), tops.tolist())):
            if g > best_gain + 1e-12:
                best_gain = g
                best = (lo + f, i)
    if best is None:
        return None
    j, i = best
    return j, float(0.5 * (X[srt[j, i], j] + X[srt[j, i + 1], j]))


@dataclass(frozen=True, eq=False)
class TrainingPool:
    """Labeled rows retained across blocks, tagged with their block id."""

    blocks: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    def add(self, block_id: int, X: np.ndarray, y: np.ndarray) -> "TrainingPool":
        return TrainingPool(self.blocks + ((block_id, X, y),))

    def keep_last(self, k: int) -> "TrainingPool":
        return TrainingPool(self.blocks[-k:])

    @property
    def block_ids(self) -> tuple[int, ...]:
        return tuple(b for b, _, _ in self.blocks)

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All rows with their block ids, oldest block first."""
        X = np.concatenate([X for _, X, _ in self.blocks])
        y = np.concatenate([y for _, _, y in self.blocks])
        ids = np.concatenate([
            np.full(Xb.shape[0], b, dtype=np.int64) for b, Xb, _ in self.blocks
        ])
        return X, y, ids


def select_training_pool(pool: TrainingPool, policy: str, cap: int, seed,
                         *, window_blocks: int = 2, decay: float = 0.8):
    """Pick at most ``cap`` rows from the pool for one fit call.

    Sliding-window restricts eligibility to the last ``window_blocks``
    blocks and samples uniformly; the full-history policies sample with
    probability proportional to ``decay ** age`` (age in blocks, newest is
    0), so recent rows are preferred.  Deterministic given the seed.
    """
    if policy not in DRIFT_POLICIES:
        raise ValueError(f"policy must be one of {DRIFT_POLICIES}, got {policy!r}")
    if policy == "sliding-window":
        pool = pool.keep_last(window_blocks)
    X, y, ids = pool.stacked()
    n = X.shape[0]
    if n <= cap:
        return X, y, ids
    rng = np.random.default_rng(seed)
    if policy == "sliding-window":
        pick = rng.choice(n, size=cap, replace=False)
    else:
        age = ids.max() - ids
        weights = decay ** age.astype(np.float64)
        pick = rng.choice(n, size=cap, replace=False, p=weights / weights.sum())
    pick.sort()  # keep chronological order inside the sample
    return X[pick], y[pick], ids[pick]


@dataclass(frozen=True, eq=False)
class BoostedEnsemble:
    """Immutable boosted ensemble; ``extend`` returns a grown copy and
    never touches existing trees.

    Scores are ``sigmoid(base_score + sum(rate_t * tree_t(x)))``.  Under the
    full-history policy the tree count after k revealed blocks is
    ``initial_trees + k * trees_per_block`` exactly.  ``revealed_blocks``
    is the id of the newest block taken in: 0 after the first block, -1 for
    the empty ensemble that ``fit_initial`` grows.
    """

    base_score: float
    trees: tuple[RegressionTree, ...]
    tree_rates: tuple[float, ...]
    n_features: int
    revealed_blocks: int
    pool: TrainingPool
    loss_history: tuple[np.ndarray, ...] = ()

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def ensemble_margin(ensemble: BoostedEnsemble, X: np.ndarray) -> np.ndarray:
    """Raw additive score: the base score plus every tree's weighted output."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise ValueError(
            f"expected rows of width {ensemble.n_features}, got shape {X.shape}"
        )
    margin = np.full(X.shape[0], ensemble.base_score, dtype=np.float64)
    for tree, rate in zip(ensemble.trees, ensemble.tree_rates):
        margin += rate * tree.predict(X)
    return margin


def predict_scores(ensemble: BoostedEnsemble, X: np.ndarray) -> np.ndarray:
    """Scores in (0, 1); deterministic and finite."""
    return sigmoid(ensemble_margin(ensemble, X))


def _boost(X: np.ndarray, y: np.ndarray, margin: np.ndarray, n_trees: int,
           rate: float, max_depth: int):
    trees: list[RegressionTree] = []
    losses = [log_loss(y, sigmoid(margin))]
    margin = margin.copy()
    order = presort(X)
    for _ in range(n_trees):
        residual = y - sigmoid(margin)
        tree = RegressionTree.fit(X, residual, max_depth, order)
        trees.append(tree)
        margin += rate * tree.predict(X)
        losses.append(log_loss(y, sigmoid(margin)))
    return trees, np.asarray(losses)


def fit_initial(X: np.ndarray, y: np.ndarray, config: BaselineConfig) -> BoostedEnsemble:
    """Fit the starting ensemble on the first labeled block.

    This is ``extend`` applied to an empty ensemble whose base score is the
    block's (clipped) log-odds, so a single-class block degenerates to that
    prior with no trees.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    empty = BoostedEnsemble(_prior_logit(y), (), (), X.shape[1], -1, TrainingPool(()))
    return extend(empty, X, y, config)


def extend(ensemble: BoostedEnsemble, X_new: np.ndarray, y_new: np.ndarray,
           config: BaselineConfig) -> BoostedEnsemble:
    """Grow the ensemble with the newly revealed block.

    Appends ``initial_trees`` trees for block 0 and ``trees_per_block`` for
    every later block, fitted on the policy's training pool; prior trees
    and (for a two-class pool) the base score are untouched.  A pool that
    has collapsed to a single class updates only the base score.
    """
    X_new = np.asarray(X_new, dtype=np.float64)
    y_new = np.asarray(y_new, dtype=np.float64)
    if X_new.shape[1] != ensemble.n_features:
        raise ValueError(
            f"expected rows of width {ensemble.n_features}, got {X_new.shape[1]}"
        )
    k = ensemble.revealed_blocks + 1
    pool = ensemble.pool.add(k, X_new, y_new)
    if config.policy == "sliding-window":
        pool = pool.keep_last(config.window_blocks)

    _, y_all, _ = pool.stacked()
    if np.all(y_all == y_all[0]):
        return replace(ensemble, base_score=_prior_logit(y_all),
                       revealed_blocks=k, pool=pool)

    Xs, ys, _ = select_training_pool(
        pool, config.policy, config.subsample_cap,
        np.random.SeedSequence((config.seed, k)),
        window_blocks=config.window_blocks, decay=config.decay,
    )
    rate = config.learning_rate
    if config.policy == "adaptive-lr":
        rate = config.learning_rate * config.decay ** k
    start = ensemble_margin(ensemble, Xs)
    n_trees = config.initial_trees if k == 0 else config.trees_per_block
    trees, losses = _boost(Xs, ys, start, n_trees, rate, config.max_depth)
    return replace(
        ensemble,
        trees=ensemble.trees + tuple(trees),
        tree_rates=ensemble.tree_rates + (rate,) * len(trees),
        revealed_blocks=k,
        pool=pool,
        loss_history=ensemble.loss_history + (losses,),
    )


class BaselinePredictor:
    """Adapter wrapping the boosted ensemble for the lifelong harness.

    Buffers nothing beyond what the drift policy retains: encoders grow
    their vocabulary with each revealed block (ordinal only; count and
    target-mean stay frozen on the first block so earlier trees keep their
    feature semantics), and the ensemble is extended per policy.
    """

    def __init__(self, config: BaselineConfig | None = None, name: str = "baseline",
                 freeze_after_initial: bool = False):
        self.config = config if config is not None else BaselineConfig()
        self.name = name
        self.freeze_after_initial = freeze_after_initial
        self.schema: FeatureSchema | None = None
        self.encoders: dict[str, FittedEncoder] = {}
        self.ensemble: BoostedEnsemble | None = None

    def learn(self, rows: Sequence[tuple[str, ...]], labels, schema: FeatureSchema,
              remaining_budget_seconds: float) -> None:
        if self.ensemble is None:
            self.schema = schema
            self.encoders = fit_dataset_encoders(
                schema, rows, labels,
                cat_kind=self.config.cat_encoder,
                mvc_kind=self.config.mvc_encoder,
                smoothing=self.config.target_smoothing,
            )
        elif self.freeze_after_initial:
            return
        else:
            for j, (name, _kind) in enumerate(self.schema.columns):
                enc = self.encoders.get(name)
                if enc is not None and enc.kind is EncoderKind.ORDINAL:
                    self.encoders[name] = extend_ordinal(enc, [row[j] for row in rows])
        X = transform_rows(self.schema, rows, self.encoders)
        y = np.asarray(labels, dtype=np.float64)
        self.ensemble = (fit_initial(X, y, self.config) if self.ensemble is None
                         else extend(self.ensemble, X, y, self.config))

    def predict(self, rows: Sequence[tuple[str, ...]]) -> np.ndarray:
        if self.ensemble is None:
            raise RuntimeError("predict before any learn call")
        X = transform_rows(self.schema, rows, self.encoders)
        return predict_scores(self.ensemble, X)
