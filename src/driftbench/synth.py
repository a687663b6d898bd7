"""Synthetic drifting tabular streams.

Rows are labeled by a latent linear score over the numeric features plus
per-category effects.  Drift rotates the latent parameters toward an
orthogonal direction: gradually block by block, or all at once at the
midpoint block.  Categorical values follow a power-law frequency
distribution, which is what large real-world id-like columns look like.

A stream is written as its data file's bytes straight from numpy arrays,
never as one Python string per cell: each chunk of rows is a block of
fixed-width byte fields, one per cell, gathered from byte tables (category
names, digit pairs), and written with its filler bytes dropped.  The bytes
are those of the cells ``v{code}``, ``"%.6f" % x`` and ``str(tick)``.
They come only from fixed alphabets (the names ``v{code}`` and
``|v{code}``, digits, ``-`` and ``.``, Python's ``%.6f`` on the slow path,
and the commas and newlines :func:`_line_block` places), so every line
holds the schema's cells by construction, and the stream is not scanned
again: every reader of a data file checks every row it takes in.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .data import (MVC_SEPARATOR, Block, FeatureKind, FeatureSchema, _header_line,
                   check_field_types, plan_blocks)

DRIFT_PROFILES = ("none", "gradual", "abrupt")

#: Slope of the logistic link from the standardized latent score to P(label=1).
LABEL_SHARPNESS = 3.0
#: Tokens drawn per multi-valued cell: 1 to this many, duplicates dropped.
MVC_MAX_TOKENS = 3
#: Rows whose bytes are made at a time.  Every draw is made for the whole
#: stream first, so the bytes do not depend on it; it bounds the byte fields
#: alive at once.
_CHUNK_ROWS = 256

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


def generate_drift_stream(spec: DriftGenSpec) -> Block:
    """Generate one stream per ``spec``; deterministic given the seed.

    Every random draw and every effect on the score is made for the whole
    stream, column by column.  The data file's bytes are then made a chunk
    of ``_CHUNK_ROWS`` rows at a time, as one ``(rows, bytes)`` block of
    byte fields (see :func:`_line_block`), and written with its filler
    dropped; each row's line start comes from its count of bytes written.
    No cell is ever held as a ``str``, and no line is scanned again: its
    bytes come from fixed alphabets, so it holds the schema's cells by
    construction.
    A categorical column's effect is looked up per row,
    ``cos(angle) * e_a[codes] + sin(angle) * e_b[codes]``: elementwise the
    operations of ``_rotated(e_a, e_b, angle)[rows, codes]``, so the same
    bits, without a rows x cardinality table.  A multi-valued column does
    the same over its (rows, 3) draws, and keeps which draws its cells hold
    as a mask.
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

    score = np.zeros(n)
    # Codes in the smallest type that holds them: as int64 they were most of the peak.
    code_type = np.min_scalar_type(card)
    # One draw for all categorical columns reads the same stream as one per column.
    cat_codes = rng.choice(card, size=(spec.n_cat, n), p=probs).astype(code_type)
    for (e_a, e_b), codes in zip(cat_eff, cat_codes):
        score += cos * e_a[codes] + sin * e_b[codes]

    x_num = rng.standard_normal((n, spec.n_num))
    if spec.n_num:
        score += np.einsum("ij,ij->i", x_num, _rotated(w_a, w_b, angle))

    mvc_draws = []
    for e_a, e_b in mvc_eff:
        counts = rng.integers(1, MVC_MAX_TOKENS + 1, size=n)
        draws = rng.choice(card, size=(n, MVC_MAX_TOKENS), p=probs).astype(code_type)
        eff = cos[:, None] * e_a[draws] + sin[:, None] * e_b[draws]
        # A cell's tokens are its first `count` draws, duplicates dropped.
        # Their effects are summed in draw order and divided by their count:
        # the same operations, so the same bits, as a mean per row.
        keep = np.arange(MVC_MAX_TOKENS) < counts[:, None]
        total = eff[:, 0].copy()
        for j in range(1, MVC_MAX_TOKENS):
            kept = keep[:, j]   # a view: a duplicate dropped here is dropped from keep
            kept &= (draws[:, :j] != draws[:, j:j + 1]).all(axis=1)
            np.add(total, eff[:, j], out=total, where=kept)
        score += total / keep.sum(axis=1)
        mvc_draws.append((draws, keep))

    times = [1_600_000_000 + np.cumsum(rng.integers(0, 3, size=n)) for _ in range(spec.n_time)]

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

    schema = build_schema(spec)
    out = io.BytesIO()
    starts = np.empty(n + 1, dtype=np.int64)
    starts[0] = out.write(_header_line(schema, labeled=True))
    names = _name_table(card)
    # A multi-valued cell's first token has no separator; a later one is
    # "|"-prefixed, and a dropped duplicate is the all-filler last row.
    mvc_offset = np.array([0, card, card])
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        cells = [names[cat_codes[:, lo:hi].T], _fixed6_cells(x_num[lo:hi])]
        cells += [names[np.where(keep[lo:hi], draws[lo:hi] + mvc_offset, 2 * card)]
                  .reshape(hi - lo, 1, -1) for draws, keep in mvc_draws]
        cells.append(_int_cells(np.stack([ticks[lo:hi] for ticks in times + [labels]], axis=1)))
        block = _line_block(cells)
        written = block != 0
        out.write(block[written])
        starts[lo + 1:hi + 1] = starts[lo] + np.cumsum(written.sum(axis=1))
    # getvalue hands over the buffer the blocks were written to, uncopied.
    return Block(schema, out.getvalue(), starts, labels,
                 f"{spec.dataset_id}(seed={spec.seed},drift={spec.drift})")


# ---------------------------------------------------------------------------
# cells as bytes: each cell is a fixed-width field of ASCII bytes, padded
# anywhere with filler, zero bytes, which are dropped when a block is
# written (numpy's zeroed arrays and "S" strings pad with them)


#: Entry ``i`` is the two ASCII digits of ``i``, for ``i`` in 0 .. 99, as
#: one 2-byte item, so a digit pair is written by one gather.
_DIGIT_PAIRS = np.array([f"{i:02d}" for i in range(100)], dtype="S2").view(np.uint16)
#: ``|x|·1e6`` below this is exact to 2**-23 in float64, far inside the
#: 1e-6 margin the fast path keeps from a rounding tie.
_FAST_LIMIT = 2.0 ** 30
_FAST_WIDTH = 12     # sign, four integer digits, ".", six decimals


def _name_table(cardinality: int) -> np.ndarray:
    """The category names as byte fields, one row each: ``v1 ..
    v{cardinality}``, then the same names ``"|"``-prefixed, then one row
    of filler only."""
    names = [f"v{code + 1}" for code in range(cardinality)]
    width = len(names[-1]) + 1
    return (np.array(names + [MVC_SEPARATOR + name for name in names] + [""], dtype=f"S{width}")
            .view(np.uint8).reshape(-1, width))


def _digit_pairs(values: np.ndarray, n_pairs: int) -> np.ndarray:
    """The last ``2 * n_pairs`` decimal digits of the non-negative ints
    ``values``, zero-padded, as ASCII: shape ``values.shape + (2 * n_pairs,)``."""
    pairs = np.empty(values.shape + (n_pairs,), dtype=np.uint16)
    for k in range(n_pairs - 1, -1, -1):
        # Floor division and a product: much faster than np.divmod.
        rest = values // 100
        pairs[..., k] = _DIGIT_PAIRS[values - rest * 100]
        values = rest
    return pairs.view(np.uint8)


def _int_digits(values: np.ndarray, n_pairs: int) -> np.ndarray:
    """:func:`_digit_pairs` with the leading zeros but the last digit
    turned to filler: the digits ``str`` gives, right-aligned."""
    digits = _digit_pairs(values, n_pairs)
    seen = np.zeros(values.shape, dtype=bool)   # a nonzero digit was left of here
    for i in range(2 * n_pairs - 1):
        digit = digits[..., i]
        seen |= digit != ord("0")
        digit *= seen
    return digits


def _int_cells(values: np.ndarray) -> np.ndarray:
    """The cells ``str(v)`` of the non-negative ints ``values`` as byte
    fields: shape ``values.shape + (width,)``."""
    return _int_digits(values, (len(str(int(values.max(initial=0)))) + 1) // 2)


def _fixed6_cells(x: np.ndarray) -> np.ndarray:
    """The cells ``"%.6f" % v`` of the floats ``x`` as byte fields: shape
    ``x.shape + (width,)``, ``width`` at least 12.

    A value is written from ``np.rint(|x|·1e6)`` by digit pairs, with the
    sign of ``np.signbit`` (so ``-0.0`` and ``-1e-9`` give ``-0.000000``),
    where ``|x|·1e6 < 2**30`` and its fraction is more than 1e-6 from .5:
    there the product's rounding error (at most 2**-23) cannot move it
    across a rounding tie, so rint rounds as ``%.6f`` does.  Every other
    value (about 2 in 10**6 standard-normal draws, and any large or
    non-finite one) is formatted by Python.
    """
    # Clipped first, so no product overflows and no huge value is cast.
    scaled = np.minimum(np.abs(x), 2 * _FAST_LIMIT / 1e6) * 1e6
    ticks = np.rint(scaled)
    fast = (scaled < _FAST_LIMIT) & (np.abs(ticks - scaled) < 0.5 - 1e-6)
    micros = np.where(fast, ticks, 0).astype(np.int64)
    whole = micros // 1_000_000
    slow = [b"%.6f" % v for v in x[~fast].tolist()]
    width = max([_FAST_WIDTH] + [len(cell) for cell in slow])
    cells = np.zeros(x.shape + (width,), dtype=np.uint8)
    cells[..., 0] = np.where(np.signbit(x), ord("-"), 0)
    cells[..., 1:5] = _int_digits(whole, 2)
    cells[..., 5] = ord(".")
    cells[..., 6:12] = _digit_pairs(micros - whole * 1_000_000, 3)
    if slow:
        cells[~fast] = np.array(slow, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return cells


def _line_block(cells: list[np.ndarray]) -> np.ndarray:
    """Rows of lines from their cells: each of ``cells`` is a
    ``(rows, columns, width)`` array of byte fields, in line order.  Every
    field is followed by a comma, but a row's last by its newline."""
    rows = cells[0].shape[0]
    block = np.empty((rows, sum(k * (w + 1) for _, k, w in (c.shape for c in cells))),
                     dtype=np.uint8)
    lo = 0
    for part in cells:
        _, k, w = part.shape
        # A run of whole columns of a row-major array reshapes as a view.
        fields = block[:, lo:lo + k * (w + 1)].reshape(rows, k, w + 1)
        fields[..., :w] = part
        fields[..., w] = ord(",")
        lo += k * (w + 1)
    block[:, -1] = ord("\n")
    return block


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
