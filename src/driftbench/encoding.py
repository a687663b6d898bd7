"""Categorical feature encoders and whole-dataset matrix assembly.

Three encoders cover the strategies that work on power-law categorical
columns without exploding dimensionality: ordinal codes in order of first
appearance, occurrence counts, and smoothed target means.  Values never
seen at fit time map to 0 (ordinal, count) or to the global prior (target
mean), so transforms cannot fail on later blocks of a stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import (
    MVC_SEPARATOR,
    ChronoDataset,
    DatasetFormatError,
    FeatureKind,
    FeatureSchema,
)


class EncodingError(ValueError):
    pass


class EncoderKind(enum.Enum):
    ORDINAL = "ordinal"
    COUNT = "count"
    TARGET_MEAN = "target-mean"


@dataclass(frozen=True)
class FittedEncoder:
    """Immutable per-column encoder state.

    ``mapping`` holds, per category value: the 1-based first-appearance code
    (ordinal), the occurrence count (count), or a ``(label_sum, count)``
    pair (target mean).  Code 0 / count 0 / the prior are reserved for
    values unseen at fit time.
    """

    kind: EncoderKind
    mapping: Mapping[str, object]
    prior: float = 0.0
    smoothing: float = 0.0

    def encode_value(self, value: str) -> float:
        if self.kind is EncoderKind.ORDINAL or self.kind is EncoderKind.COUNT:
            return float(self.mapping.get(value, 0))
        stats = self.mapping.get(value)
        if stats is None:
            return self.prior
        label_sum, count = stats
        return (label_sum + self.smoothing * self.prior) / (count + self.smoothing)


def fit_encoder(kind: EncoderKind, values: Sequence[str],
                labels: Sequence[int] | np.ndarray | None = None,
                smoothing: float = 10.0) -> FittedEncoder:
    """Fit one encoder on a column of raw values.

    Target-mean encoding needs ``labels`` aligned with ``values``; the
    encoded value of category v is ``(sum_v + m * prior) / (count_v + m)``
    with ``m = smoothing`` and prior the global label mean.
    """
    if kind is EncoderKind.ORDINAL:
        return extend_ordinal(FittedEncoder(kind, {}), values)
    if kind is EncoderKind.COUNT:
        counts: dict[str, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return FittedEncoder(kind, counts)
    if kind is EncoderKind.TARGET_MEAN:
        if labels is None:
            raise EncodingError("target-mean encoding needs labels at fit time")
        labels = np.asarray(labels, dtype=np.float64)
        if len(labels) != len(values):
            raise EncodingError(
                f"{len(values)} values but {len(labels)} labels at fit time"
            )
        stats: dict[str, tuple[float, int]] = {}
        for v, y in zip(values, labels):
            s, c = stats.get(v, (0.0, 0))
            stats[v] = (s + float(y), c + 1)
        prior = float(labels.mean()) if len(labels) else 0.0
        return FittedEncoder(kind, stats, prior=prior, smoothing=float(smoothing))
    raise EncodingError(f"unknown encoder kind {kind!r}")


def extend_ordinal(encoder: FittedEncoder, values: Sequence[str]) -> FittedEncoder:
    """New ordinal encoder whose vocabulary appends unseen values.

    Existing codes are preserved, so matrices encoded with the old encoder
    stay valid; this is how a stream grows its vocabulary block by block.
    """
    if encoder.kind is not EncoderKind.ORDINAL:
        raise EncodingError("only ordinal encoders can extend their vocabulary")
    codes = dict(encoder.mapping)
    for v in values:
        if v not in codes:
            codes[v] = len(codes) + 1
    return FittedEncoder(EncoderKind.ORDINAL, codes)


def transform_column(encoder: FittedEncoder, values: Sequence[str]) -> np.ndarray:
    """Encode a column; length-preserving and total (unseen values follow
    the encoder's unseen rule instead of failing)."""
    return np.array([encoder.encode_value(v) for v in values], dtype=np.float64)


def transform_mvc_column(encoder: FittedEncoder, cells: Sequence[str]) -> np.ndarray:
    """Encode a multi-valued column as the mean of per-token encodings.

    Empty cells encode to 0.  Ordinal encoders treat the whole joined cell
    as one value instead (token order matters there by construction).
    """
    if encoder.kind is EncoderKind.ORDINAL:
        return transform_column(encoder, cells)
    out = np.zeros(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if not cell:
            continue
        tokens = cell.split(MVC_SEPARATOR)
        out[i] = sum(encoder.encode_value(t) for t in tokens) / len(tokens)
    return out


def mvc_fit_tokens(cells: Sequence[str],
                   labels: Sequence[int] | np.ndarray | None = None):
    """Explode multi-valued cells into tokens (labels repeated per token)."""
    tokens: list[str] = []
    token_labels: list[float] = [] if labels is not None else None  # type: ignore[assignment]
    for i, cell in enumerate(cells):
        if not cell:
            continue
        for t in cell.split(MVC_SEPARATOR):
            tokens.append(t)
            if labels is not None:
                token_labels.append(float(labels[i]))
    return tokens, token_labels


def fit_dataset_encoders(schema: FeatureSchema,
                         rows: Sequence[tuple[str, ...]],
                         labels: Sequence[int] | np.ndarray | None,
                         cat_kind: EncoderKind = EncoderKind.ORDINAL,
                         mvc_kind: EncoderKind | None = None,
                         smoothing: float = 10.0) -> dict[str, FittedEncoder]:
    """Fit one encoder per categorical / multi-valued column of ``rows``."""
    mvc_kind = cat_kind if mvc_kind is None else mvc_kind
    encoders: dict[str, FittedEncoder] = {}
    for j, (name, kind) in enumerate(schema.columns):
        column = [row[j] for row in rows]
        if kind is FeatureKind.CATEGORICAL:
            encoders[name] = fit_encoder(cat_kind, column, labels, smoothing)
        elif kind is FeatureKind.MULTI_CATEGORICAL:
            if mvc_kind is EncoderKind.ORDINAL:
                encoders[name] = fit_encoder(EncoderKind.ORDINAL, column)
            else:
                tokens, token_labels = mvc_fit_tokens(column, labels)
                encoders[name] = fit_encoder(mvc_kind, tokens, token_labels, smoothing)
    return encoders


def transform_rows(schema: FeatureSchema,
                   rows: Sequence[tuple[str, ...]],
                   encoders: Mapping[str, FittedEncoder]) -> np.ndarray:
    """Assemble the numeric matrix for ``rows``, one column per schema
    feature in schema order.

    Numeric cells parse to finite floats (missing -> 0), time cells to int,
    and categorical / multi-valued cells go through their fitted encoder.
    """
    n = len(rows)
    out = np.zeros((n, schema.n_features), dtype=np.float64)
    for j, (name, kind) in enumerate(schema.columns):
        if kind is FeatureKind.NUMERICAL or kind is FeatureKind.TIME:
            for i, row in enumerate(rows):
                cell = row[j]
                if cell == "":
                    continue
                try:
                    out[i, j] = float(cell) if kind is FeatureKind.NUMERICAL else int(cell)
                except ValueError:
                    raise DatasetFormatError(
                        f"row {i}, column {name!r}: cannot parse {cell!r} as "
                        f"{'a number' if kind is FeatureKind.NUMERICAL else 'an integer'}"
                    ) from None
            bad = np.flatnonzero(~np.isfinite(out[:, j]))
            if bad.size:
                i = int(bad[0])
                raise DatasetFormatError(
                    f"row {i}, column {name!r}: {rows[i][j]!r} is not a finite number"
                )
        elif kind is FeatureKind.CATEGORICAL:
            out[:, j] = transform_column(encoders[name], [row[j] for row in rows])
        else:
            out[:, j] = transform_mvc_column(encoders[name], [row[j] for row in rows])
    return out


def encode_dataset(dataset: ChronoDataset,
                   cat_kind: EncoderKind = EncoderKind.ORDINAL,
                   mvc_kind: EncoderKind | None = None,
                   fit_rows: tuple[int, int] | None = None,
                   smoothing: float = 10.0) -> tuple[np.ndarray, dict[str, FittedEncoder]]:
    """Encode a whole dataset into a float matrix.

    Encoders are fitted on the half-open row range ``fit_rows`` (default:
    every row) and applied to every row, so nothing past the fit range can
    leak into the encoder state.
    """
    lo, hi = fit_rows if fit_rows is not None else (0, len(dataset))
    if not (0 <= lo <= hi <= len(dataset)):
        raise EncodingError(f"fit range [{lo}, {hi}) outside dataset of {len(dataset)} rows")
    encoders = fit_dataset_encoders(
        dataset.schema, dataset.rows[lo:hi], dataset.labels[lo:hi],
        cat_kind=cat_kind, mvc_kind=mvc_kind, smoothing=smoothing,
    )
    matrix = transform_rows(dataset.schema, dataset.rows, encoders)
    return matrix, encoders
