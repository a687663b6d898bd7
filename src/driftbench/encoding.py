"""Categorical feature encoders and whole-table matrix assembly.

Three encoders cover the strategies that work on power-law categorical
columns without exploding dimensionality: ordinal codes in order of first
appearance, occurrence counts, and smoothed target means.  Each fitted
encoder is one lookup table from value to number; target means are
smoothed toward the global label mean at fit time.  Values never seen at
fit time map to the encoder's ``unseen`` number (0, or that label mean for
target mean), so transforms cannot fail on later blocks of a stream.
:func:`transform_rows` encodes one whole column at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import MVC_SEPARATOR, DatasetFormatError, FeatureKind, FeatureSchema


class EncodingError(ValueError):
    pass


class EncoderKind(enum.Enum):
    ORDINAL = "ordinal"
    COUNT = "count"
    TARGET_MEAN = "target-mean"


@dataclass(frozen=True)
class FittedEncoder:
    """Immutable per-column encoder: a value seen at fit time encodes to
    ``mapping[value]``, any other value to ``unseen``.

    ``mapping`` holds the 1-based first-appearance code (ordinal), the
    occurrence count (count) or the smoothed label mean (target mean).
    """

    kind: EncoderKind
    mapping: Mapping[str, float]
    unseen: float = 0


def _fit(kind: EncoderKind, values: Sequence[str],
         labels: Sequence[float] | np.ndarray | None, smoothing: float) -> FittedEncoder:
    if kind is EncoderKind.ORDINAL:
        return extend_ordinal(FittedEncoder(kind, {}), values)
    if kind is EncoderKind.COUNT:
        counts: dict[str, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return FittedEncoder(kind, counts)
    if labels is None:
        raise EncodingError("target-mean encoding needs labels at fit time")
    labels = np.asarray(labels, dtype=np.float64)
    stats: dict[str, tuple[float, int]] = {}
    for v, y in zip(values, labels):
        s, c = stats.get(v, (0.0, 0))
        stats[v] = (s + float(y), c + 1)
    prior = float(labels.mean()) if len(labels) else 0.0
    m = float(smoothing)
    means = {v: (s + m * prior) / (c + m) for v, (s, c) in stats.items()}
    return FittedEncoder(kind, means, prior)


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


def fit_dataset_encoders(schema: FeatureSchema,
                         rows: Sequence[tuple[str, ...]],
                         labels: Sequence[int] | np.ndarray | None,
                         cat_kind: EncoderKind = EncoderKind.ORDINAL,
                         mvc_kind: EncoderKind | None = None,
                         smoothing: float = 10.0) -> dict[str, FittedEncoder]:
    """Fit one encoder per categorical / multi-valued column of ``rows``.

    Target mean needs ``labels`` aligned with ``rows``; category v encodes
    to ``(sum_v + m * prior) / (count_v + m)`` with ``m = smoothing`` and
    prior the mean label.  A multi-valued column is fitted on its cells'
    tokens (each token carrying its row's label), except under ordinal
    encoding, which codes each whole cell.
    """
    if labels is not None and len(labels) != len(rows):
        raise EncodingError(f"{len(rows)} rows but {len(labels)} labels at fit time")
    mvc_kind = cat_kind if mvc_kind is None else mvc_kind
    encoders: dict[str, FittedEncoder] = {}
    for j, (name, kind) in enumerate(schema.columns):
        if kind is FeatureKind.CATEGORICAL:
            encoders[name] = _fit(cat_kind, [row[j] for row in rows], labels, smoothing)
        elif kind is FeatureKind.MULTI_CATEGORICAL:
            if mvc_kind is EncoderKind.ORDINAL:
                encoders[name] = _fit(mvc_kind, [row[j] for row in rows], None, smoothing)
                continue
            tokens: list[str] = []
            token_labels: list[float] | None = None if labels is None else []
            for i, row in enumerate(rows):
                if row[j]:
                    cell_tokens = row[j].split(MVC_SEPARATOR)
                    tokens += cell_tokens
                    if token_labels is not None:
                        token_labels += [float(labels[i])] * len(cell_tokens)
            encoders[name] = _fit(mvc_kind, tokens, token_labels, smoothing)
    return encoders


def _token_mean(cell: str, get, unseen: float) -> float:
    if not cell:
        return 0.0
    tokens = cell.split(MVC_SEPARATOR)
    return sum([get(t, unseen) for t in tokens]) / len(tokens)


def _int_float(cell: str) -> float:
    return float(int(cell))


def _parse_cell(parse, name: str, kind: FeatureKind, i: int, cell: str) -> float:
    try:
        return parse(cell) if cell else 0.0
    except OverflowError:
        return math.inf  # an integer past float range; named below
    except ValueError:
        raise DatasetFormatError(
            f"row {i}, column {name!r}: cannot parse {cell!r} as "
            f"{'a number' if kind is FeatureKind.NUMERICAL else 'an integer'}"
        ) from None


def _parse_column(name: str, kind: FeatureKind, cells: Sequence[str]) -> np.ndarray:
    """Numeric or time column as finite floats (missing -> 0)."""
    parse = float if kind is FeatureKind.NUMERICAL else _int_float
    try:
        values = [parse(c) if c else 0.0 for c in cells]
    except (ValueError, OverflowError):  # scan again to name the first bad row
        values = [_parse_cell(parse, name, kind, i, c) for i, c in enumerate(cells)]
    column = np.array(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        i = int(bad[0])
        raise DatasetFormatError(f"row {i}, column {name!r}: {cells[i]!r} is not a finite number")
    return column


def transform_rows(schema: FeatureSchema,
                   rows: Sequence[tuple[str, ...]],
                   encoders: Mapping[str, FittedEncoder]) -> np.ndarray:
    """Assemble the C-ordered ``(rows, features)`` float matrix for
    ``rows``, one column per schema feature in schema order.

    Numeric cells parse to finite floats (missing -> 0), time cells to
    int, and categorical / multi-valued cells go through their fitted
    encoder.  A multi-valued cell encodes to the mean of its tokens'
    numbers (empty -> 0), except under ordinal encoding, which codes the
    whole cell.
    """
    out = np.empty((len(rows), schema.n_features), dtype=np.float64)
    for j, (name, kind) in enumerate(schema.columns):
        cells = [row[j] for row in rows]
        if kind is FeatureKind.NUMERICAL or kind is FeatureKind.TIME:
            out[:, j] = _parse_column(name, kind, cells)
            continue
        encoder = encoders[name]
        get, unseen = encoder.mapping.get, encoder.unseen
        if kind is FeatureKind.CATEGORICAL or encoder.kind is EncoderKind.ORDINAL:
            out[:, j] = [get(c, unseen) for c in cells]
        else:
            out[:, j] = [_token_mean(c, get, unseen) for c in cells]
    return out
