"""Categorical codes and whole-table matrix assembly.

An encoder is one ``dict`` per categorical or multi-valued column.  It maps
each value seen so far to a 1-based code in order of first appearance, and
any other value maps to 0, so transforms cannot fail on later blocks of a
stream.  A multi-valued cell is coded whole, as one value.  A vocabulary
grows only through :func:`extend_ordinal`, which returns a new dict.
:func:`transform_rows` encodes one whole column at a time, each cut from
one split of a block's text.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .data import Block, DatasetFormatError, FeatureKind


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


def fit_dataset_encoders(block: Block) -> dict[str, dict[str, int]]:
    """The codes of each categorical / multi-valued column of ``block``
    (named by the block's schema), in order of first appearance."""
    columns = block.columns
    return {name: extend_ordinal({}, columns[j])
            for j, (name, kind) in enumerate(block.schema.columns)
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


def _parse_column(name: str, kind: FeatureKind, cells: list[str]) -> np.ndarray:
    """Numeric or time column as finite floats (missing -> 0).

    numpy parses the whole column: a numeric cell as ``float()`` reads it,
    a time cell as ``int()`` does, into int64.  A column numpy refuses (a
    bad cell, or a time past int64) is parsed again a cell at a time, which
    reads a time cell as ``float(int(cell))`` and names the first bad row.
    """
    filled = [c or "0" for c in cells] if "" in cells else cells
    try:
        if kind is FeatureKind.NUMERICAL:
            column = np.array(filled, dtype=np.float64)
        else:
            column = np.array(filled, dtype=np.int64).astype(np.float64)
    except (ValueError, OverflowError):
        parse = float if kind is FeatureKind.NUMERICAL else _int_float
        column = np.array([_parse_cell(parse, name, kind, i, c) for i, c in enumerate(cells)],
                          dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        i = int(bad[0])
        raise DatasetFormatError(f"row {i}, column {name!r}: {cells[i]!r} is not a finite number")
    return column


def transform_rows(block: Block, encoders: Mapping[str, Mapping[str, int]]) -> np.ndarray:
    """Assemble the C-ordered ``(rows, features)`` float matrix for
    ``block``, one column per feature of the block's own schema in order,
    each filled whole from its :attr:`~driftbench.data.Block.columns`.

    Numeric cells parse to finite floats (missing -> 0), time cells to
    int, and each categorical / multi-valued cell becomes its column's
    code, 0 when unseen.  A cell that does not parse names its row in the
    block and its column.
    """
    columns = block.columns
    out = np.empty((len(block), block.schema.n_features), dtype=np.float64)
    for j, (name, kind) in enumerate(block.schema.columns):
        if kind is FeatureKind.NUMERICAL or kind is FeatureKind.TIME:
            out[:, j] = _parse_column(name, kind, columns[j])
        else:
            out[:, j] = np.fromiter(map(encoders[name].get, columns[j], repeat(0)),
                                    np.float64, len(block))
    return out
