"""Synthetic drifting tabular streams.

Rows are labeled by a latent linear score over the numeric features plus
per-category effects.  Drift rotates the latent parameters toward an
orthogonal direction: gradually block by block, or all at once at the
midpoint block.  Categorical values follow a power-law frequency
distribution, which is what large real-world id-like columns look like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (MVC_SEPARATOR, ChronoDataset, FeatureKind, FeatureSchema, check_field_types,
                   plan_blocks)

DRIFT_PROFILES = ("none", "gradual", "abrupt")

#: Slope of the logistic link from the standardized latent score to P(label=1).
LABEL_SHARPNESS = 3.0
#: Tokens drawn per multi-valued cell: 1 to this many, duplicates dropped.
MVC_MAX_TOKENS = 3

#: Feature-type mix (cat, num, mvc, time) and time budget in seconds of the
#: five public challenge streams; used to shape desk-scale analogs.
DATASET_SHAPES = {
    "A": (51, 23, 6, 2, 3600.0),
    "B": (17, 7, 1, 0, 600.0),
    "C": (44, 20, 9, 6, 1200.0),
    "D": (17, 54, 1, 4, 600.0),
    "E": (25, 6, 1, 2, 1800.0),
}


@dataclass(frozen=True)
class DriftGenSpec:
    """Recipe for one synthetic stream; equal specs generate equal bytes."""

    n_rows: int
    n_cat: int
    n_num: int
    n_mvc: int = 0
    n_time: int = 1
    n_blocks: int = 10
    drift: str = "none"
    drift_magnitude: float = 0.0
    cat_cardinality: int = 30
    power_exponent: float = 1.3
    seed: int = 0
    dataset_id: str = "synth"

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.drift not in DRIFT_PROFILES:
            raise ValueError(f"drift profile must be one of {DRIFT_PROFILES}, got {self.drift!r}")
        if not 0 <= self.drift_magnitude < np.inf:
            raise ValueError("drift_magnitude must be a finite number >= 0, "
                             f"got {self.drift_magnitude}")
        if self.cat_cardinality < 1:
            raise ValueError("categorical cardinality must be positive")
        if not 0 < self.power_exponent < np.inf:
            raise ValueError("power_exponent must be a finite number > 0, "
                             f"got {self.power_exponent}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.n_rows, self.n_blocks) < 1 or self.n_blocks > self.n_rows:
            raise ValueError("need 1 <= n_blocks <= n_rows")
        if min(self.n_cat, self.n_num, self.n_mvc, self.n_time) < 0:
            raise ValueError("feature column counts must be >= 0")
        if self.n_features < 1:
            raise ValueError("spec declares no feature columns")

    @property
    def n_features(self) -> int:
        return self.n_cat + self.n_num + self.n_mvc + self.n_time


def power_law_probs(cardinality: int, exponent: float) -> np.ndarray:
    """Sampling probabilities proportional to rank**-exponent, rank 1-based."""
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    w = ranks ** (-exponent)
    return w / w.sum()


def build_schema(spec: DriftGenSpec) -> FeatureSchema:
    columns: list[tuple[str, FeatureKind]] = []
    columns += [(f"cat_{i:02d}", FeatureKind.CATEGORICAL) for i in range(spec.n_cat)]
    columns += [(f"num_{i:02d}", FeatureKind.NUMERICAL) for i in range(spec.n_num)]
    columns += [(f"mvc_{i:02d}", FeatureKind.MULTI_CATEGORICAL) for i in range(spec.n_mvc)]
    columns += [(f"time_{i:02d}", FeatureKind.TIME) for i in range(spec.n_time)]
    return FeatureSchema(tuple(columns), label="label")


def _rotated(theta_a: np.ndarray, theta_b: np.ndarray, angle: np.ndarray) -> np.ndarray:
    # angle has one entry per row; parameters get shape (n_rows, dim)
    return np.cos(angle)[:, None] * theta_a[None, :] + np.sin(angle)[:, None] * theta_b[None, :]


def generate_drift_stream(spec: DriftGenSpec) -> ChronoDataset:
    """Generate one stream per ``spec``; deterministic given the seed.

    Every feature column is built once, as a list of cells in schema order,
    and the rows are its transpose.  A categorical column's effect is
    looked up per row, ``cos(angle) * e_a[codes] + sin(angle) * e_b[codes]``:
    elementwise the operations of ``_rotated(e_a, e_b, angle)[rows, codes]``,
    so the same bits, without a rows x cardinality table.  A multi-valued
    column does the same over its (rows, 3) draws.  Category cells come
    from one name table ``v1 .. v{cardinality}`` by index, numeric cells
    from one ``%.6f`` format call per column, and multi-valued cells from
    the name table and the draws' keep mask.
    """
    rng = np.random.default_rng(spec.seed)
    n, card = spec.n_rows, spec.cat_cardinality

    # Drift position t in [0, 1] per row, from the row's block index.
    if spec.drift == "none" or spec.drift_magnitude == 0.0 or spec.n_blocks < 2:
        t = np.zeros(n)
    else:
        sizes = [hi - lo for lo, hi in plan_blocks(n, spec.n_blocks)]
        block = np.repeat(np.arange(spec.n_blocks), sizes)
        if spec.drift == "gradual":
            t = block / (spec.n_blocks - 1)
        else:  # abrupt: switch at the midpoint block
            t = (block >= spec.n_blocks // 2).astype(np.float64)
    angle = t * spec.drift_magnitude
    cos, sin = np.cos(angle), np.sin(angle)

    # Latent parameters: a base direction and an orthogonal drift target,
    # drawn for the numeric weights and for every categorical effect table.
    w_a = rng.standard_normal(spec.n_num)
    w_b = rng.standard_normal(spec.n_num)
    probs = power_law_probs(card, spec.power_exponent)
    cat_eff = [(rng.standard_normal(card), rng.standard_normal(card)) for _ in range(spec.n_cat)]
    mvc_eff = [(rng.standard_normal(card), rng.standard_normal(card)) for _ in range(spec.n_mvc)]
    names = np.array([f"v{code + 1}" for code in range(card)], dtype=object)

    score = np.zeros(n)
    columns: list[list[str]] = []
    # One draw for all categorical columns reads the same stream as one per
    # column; made before any cell string, it also keeps peak memory down.
    for (e_a, e_b), codes in zip(cat_eff, rng.choice(card, size=(spec.n_cat, n), p=probs)):
        score += cos * e_a[codes] + sin * e_b[codes]
        columns.append(names[codes].tolist())

    x_num = rng.standard_normal((n, spec.n_num))
    if spec.n_num:
        score += np.einsum("ij,ij->i", x_num, _rotated(w_a, w_b, angle))
    cell_format = ",".join(["%.6f"] * n)
    columns += [(cell_format % tuple(col.tolist())).split(",") for col in x_num.T]

    joined_names = MVC_SEPARATOR + names
    for e_a, e_b in mvc_eff:
        counts = rng.integers(1, MVC_MAX_TOKENS + 1, size=n)
        draws = rng.choice(card, size=(n, MVC_MAX_TOKENS), p=probs)
        eff = cos[:, None] * e_a[draws] + sin[:, None] * e_b[draws]
        # A cell's tokens are its first `count` draws, duplicates dropped.
        # Their effects are summed in draw order and divided by their count:
        # the same operations, so the same bits, as a mean per row.
        keep = np.arange(MVC_MAX_TOKENS) < counts[:, None]
        total = eff[:, 0].copy()
        cells = names[draws[:, 0]]
        for j in range(1, MVC_MAX_TOKENS):
            kept = keep[:, j]   # a view: a duplicate dropped here is dropped from keep
            kept &= (draws[:, :j] != draws[:, j:j + 1]).all(axis=1)
            np.add(total, eff[:, j], out=total, where=kept)
            cells[kept] += joined_names[draws[kept, j]]
        score += total / keep.sum(axis=1)
        columns.append(cells.tolist())

    for _ in range(spec.n_time):
        ticks = np.cumsum(rng.integers(0, 3, size=n))
        columns.append(list(map(str, (1_600_000_000 + ticks).tolist())))

    # Only a score that varies above rounding level is standardized.  A
    # constant one (one category, no numeric column), or one that a drift
    # too small to change more than its last bits leaves constant up to
    # rounding, has a std of rounding noise, and dividing by it would draw
    # the labels from that noise.
    if np.ptp(score) > 1e-12 * np.abs(score).max():
        score = score / score.std()
    # A spread just above that level still standardizes to huge values
    # (the score is scaled, not centered); its logistic saturates to 0 or 1.
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-LABEL_SHARPNESS * score))
    labels = (rng.random(n) < p).astype(np.int64)

    return ChronoDataset(
        schema=build_schema(spec),
        rows=tuple(zip(*columns)),
        labels=labels,
        provenance=f"{spec.dataset_id}(seed={spec.seed},drift={spec.drift})",
    )


def shape_columns(shape: str) -> dict[str, int]:
    """The column counts of one of the five public challenge streams (see
    :data:`DATASET_SHAPES`), as :class:`DriftGenSpec` keywords."""
    if not isinstance(shape, str) or shape not in DATASET_SHAPES:
        raise ValueError(f"unknown dataset shape {shape!r}; pick one of {sorted(DATASET_SHAPES)}")
    n_cat, n_num, n_mvc, n_time, _budget = DATASET_SHAPES[shape]
    return {"n_cat": n_cat, "n_num": n_num, "n_mvc": n_mvc, "n_time": n_time}


def desk_spec(shape: str, n_rows: int, *, n_blocks: int = 10, drift: str = "none",
              drift_magnitude: float = 0.0, seed: int = 0) -> DriftGenSpec:
    """A desk-scale spec with the feature-type mix of one of the five
    public challenge streams."""
    return DriftGenSpec(
        n_rows=n_rows, **shape_columns(shape), n_blocks=n_blocks, drift=drift,
        drift_magnitude=drift_magnitude, seed=seed, dataset_id=shape,
    )
