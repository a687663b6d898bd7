"""Categorical codes and whole-table matrix assembly.

An encoder is one ``dict`` per categorical or multi-valued column.  It maps
each value seen so far to a 1-based code in order of first appearance, and
any other value maps to 0, so transforms cannot fail on later blocks of a
stream.  A multi-valued cell is coded whole, as one value.  A vocabulary
grows only through :func:`extend_ordinal`, which returns a new dict.
:func:`transform_rows` encodes one whole column at a time.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .data import DatasetFormatError, FeatureKind, FeatureSchema


def extend_ordinal(codes: Mapping[str, int], values: Sequence[str]) -> dict[str, int]:
    """New codes whose vocabulary appends the unseen ``values`` in order.

    Existing codes are preserved and ``codes`` is left unchanged, so
    matrices encoded with it stay valid; this is how a stream grows its
    vocabulary block by block.
    """
    grown = dict(codes)
    for v in values:
        if v not in grown:
            grown[v] = len(grown) + 1
    return grown


def fit_dataset_encoders(schema: FeatureSchema,
                         rows: Sequence[tuple[str, ...]]) -> dict[str, dict[str, int]]:
    """The codes of each categorical / multi-valued column of ``rows``,
    in order of first appearance."""
    return {name: extend_ordinal({}, [row[j] for row in rows])
            for j, (name, kind) in enumerate(schema.columns)
            if kind is FeatureKind.CATEGORICAL or kind is FeatureKind.MULTI_CATEGORICAL}


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
                   encoders: Mapping[str, Mapping[str, int]]) -> np.ndarray:
    """Assemble the C-ordered ``(rows, features)`` float matrix for
    ``rows``, one column per schema feature in schema order.

    Numeric cells parse to finite floats (missing -> 0), time cells to
    int, and each categorical / multi-valued cell becomes its column's
    code, 0 when unseen.
    """
    out = np.empty((len(rows), schema.n_features), dtype=np.float64)
    for j, (name, kind) in enumerate(schema.columns):
        cells = [row[j] for row in rows]
        if kind is FeatureKind.NUMERICAL or kind is FeatureKind.TIME:
            out[:, j] = _parse_column(name, kind, cells)
        else:
            get = encoders[name].get
            out[:, j] = [get(c, 0) for c in cells]
    return out
