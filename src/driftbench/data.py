"""Tabular stream data model: schemas, chronological datasets, block plans.

File formats (shared by every tool in the package):

* data file -- comma-separated text, first line is the header, one row per
  line, ``\\n`` terminated.  A multi-valued cell joins its tokens with ``|``
  inside the field; an empty cell means missing.
* schema file -- one ``name,kind`` line per column with kind one of
  ``num``, ``cat``, ``mvc``, ``time``, ``label``.  Exactly one label line.
"""

from __future__ import annotations

import enum
import numbers
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

MVC_SEPARATOR = "|"


class DatasetFormatError(ValueError):
    """A data or schema file violates the documented format."""


class BlockPlanError(ValueError):
    """A requested block split cannot be built."""


class FeatureKind(enum.Enum):
    NUMERICAL = "num"
    CATEGORICAL = "cat"
    MULTI_CATEGORICAL = "mvc"
    TIME = "time"


#: The scalar types a config field may declare, each with how an error names it.
_SCALARS = {int: "an integer", float: "a number", str: "a string"}


def typed_scalar(name: str, value, kind: type):
    """``value`` as the builtin ``kind`` (``int``, ``float`` or ``str``).

    A bool is neither number, and an integer passes where a float is
    expected.  Raises TypeError naming ``name`` for any other type, and
    ValueError for an integer too large for a float.
    """
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = (not isinstance(value, bool)
              and isinstance(value, numbers.Integral if kind is int else numbers.Real))
    if not ok:
        raise TypeError(f"{name} must be {_SCALARS[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{name} must be a finite number, "
                         "got an integer too large for a float") from None


def check_field_types(obj) -> None:
    """Apply :func:`typed_scalar` to each ``int``, ``float`` or ``str``
    field of the frozen dataclass ``obj`` and store the builtin value, so a
    config value is checked the same way whoever built ``obj``.

    Annotations are read as strings: the config modules postpone their
    evaluation.
    """
    kinds = {kind.__name__: kind for kind in _SCALARS}
    for field in fields(obj):
        if field.type in kinds:
            value = typed_scalar(field.name, getattr(obj, field.name), kinds[field.type])
            object.__setattr__(obj, field.name, value)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature columns plus the name of the binary label column."""

    columns: tuple[tuple[str, FeatureKind], ...]
    label: str

    def __post_init__(self) -> None:
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            raise DatasetFormatError("duplicate column names in schema")
        if self.label in names:
            raise DatasetFormatError(f"label column {self.label!r} also listed as a feature")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    @property
    def kinds(self) -> tuple[FeatureKind, ...]:
        return tuple(kind for _, kind in self.columns)

    @property
    def n_features(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, eq=False)
class ChronoDataset:
    """A time-ordered labeled table.  Row order is chronological and is
    never permuted by any operation in this package."""

    schema: FeatureSchema
    rows: tuple[tuple[str, ...], ...]
    labels: np.ndarray  # shape (n,), values in {0, 1}
    provenance: str = ""

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if len(self.rows) != labels.shape[0]:
            raise DatasetFormatError(
                f"{len(self.rows)} rows but {labels.shape[0]} labels"
            )
        bad = np.nonzero((labels != 0) & (labels != 1))[0]
        if bad.size:
            raise DatasetFormatError(f"non-binary label at row {int(bad[0])}")
        width = self.schema.n_features
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise DatasetFormatError(
                    f"row {i} has {len(row)} cells, schema declares {width} features"
                )

    def __len__(self) -> int:
        return len(self.rows)


def plan_blocks(n_rows: int, n_blocks: int) -> tuple[tuple[int, int], ...]:
    """Split ``n_rows`` into ``n_blocks`` contiguous blocks in time order,
    as half-open ``(lo, hi)`` row ranges that cover ``0 .. n_rows``.

    Sizes differ by at most one; when the division is uneven the earliest
    blocks take the extra row each, so later blocks stay uniform.  Raises
    :class:`BlockPlanError` for fewer than 2 blocks or more blocks than rows.
    """
    if n_blocks < 2:
        raise BlockPlanError(f"need at least 2 blocks, got {n_blocks}")
    if n_blocks > n_rows:
        raise BlockPlanError(f"cannot cut {n_rows} rows into {n_blocks} non-empty blocks")
    base, extra = divmod(n_rows, n_blocks)
    ranges = []
    lo = 0
    for i in range(n_blocks):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return tuple(ranges)


# ---------------------------------------------------------------------------
# schema file I/O


def read_schema(path: str | Path) -> FeatureSchema:
    lines = _read_lines(path)
    columns: list[tuple[str, FeatureKind]] = []
    label = None
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetFormatError(f"{path}: schema line {lineno} is not 'name,kind'")
        name, token = parts
        if token == "label":
            if label is not None:
                raise DatasetFormatError(f"{path}: more than one label column")
            label = name
        else:
            try:
                kind = FeatureKind(token)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: schema line {lineno} has unknown feature kind {token!r}") from None
            columns.append((name, kind))
    if label is None:
        raise DatasetFormatError(f"{path}: schema declares no label column")
    return FeatureSchema(tuple(columns), label)


def write_schema(schema: FeatureSchema, path: str | Path) -> None:
    lines = [f"{name},{kind.value}" for name, kind in schema.columns]
    lines.append(f"{schema.label},label")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# data file I/O


def load_dataset(data_path: str | Path, schema_path: str | Path,
                 provenance: str | None = None) -> ChronoDataset:
    """Load a labeled data file against its schema file.

    Row order equals file order.  Raises :class:`DatasetFormatError` naming
    the offending row or column on any format violation.
    """
    schema = read_schema(schema_path)
    rows, labels = _read_data(data_path, schema, with_labels=True)
    return ChronoDataset(
        schema=schema,
        rows=rows,
        labels=np.asarray(labels, dtype=np.int64),
        provenance=provenance if provenance is not None else str(data_path),
    )


def read_unlabeled(data_path: str | Path, schema: FeatureSchema) -> tuple[tuple[str, ...], ...]:
    """Read a data file that carries feature columns only (no label)."""
    rows, _ = _read_data(data_path, schema, with_labels=False)
    return rows


def save_dataset(dataset: ChronoDataset, data_path: str | Path,
                 schema_path: str | Path) -> None:
    write_rows(data_path, dataset.schema, dataset.rows, dataset.labels)
    write_schema(dataset.schema, schema_path)


def write_rows(path: str | Path, schema: FeatureSchema,
               rows: Sequence[tuple[str, ...]],
               labels: Sequence[int] | np.ndarray | None = None) -> None:
    """Write a data file; include the label column iff ``labels`` is given."""
    header = list(schema.names)
    if labels is not None:
        header.append(schema.label)
        if len(labels) != len(rows):
            raise DatasetFormatError(f"{len(rows)} rows but {len(labels)} labels")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        if labels is None:
            fh.writelines(",".join(row) + "\n" for row in rows)
        else:
            fh.writelines(f"{','.join(row)},{int(y)}\n" for row, y in zip(rows, labels))


def _read_lines(path: str | Path) -> Iterator[str]:
    """The file's lines, one at a time, without their newline.

    Universal newlines; a final empty line is dropped (the file's last
    newline ends a line, it does not start one), and a blank line anywhere
    else is kept.
    """
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")


def _read_data(path: str | Path, schema: FeatureSchema, *, with_labels: bool):
    """Parse a data file into row tuples (schema order) and labels.

    Lines are parsed as :func:`_read_lines` yields them, so the file's text
    and its list of lines are never held beside the rows built from them: a
    load peaks at about what it returns, and the judge, which holds one
    stream at a time, peaks with the largest stream.
    """
    lines = _read_lines(path)
    first = next(lines, None)
    if first is None:
        raise DatasetFormatError(f"{path}: empty data file")
    header = first.split(",")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        # header.index below would read the first copy and silently drop the rest.
        raise DatasetFormatError(f"{path}: header repeats column {repeated[0]!r}")
    expected = list(schema.names) + ([schema.label] if with_labels else [])
    missing = [name for name in expected if name not in header]
    if missing:
        raise DatasetFormatError(f"{path}: header is missing column {missing[0]!r}")
    extra = [name for name in header if name not in expected]
    if extra:
        raise DatasetFormatError(f"{path}: header has undeclared column {extra[0]!r}")
    positions = [header.index(name) for name in schema.names]
    # itemgetter builds a tuple only from two or more positions; with one it
    # returns the bare cell.
    pick = (operator.itemgetter(*positions) if len(positions) > 1
            else lambda cells: tuple([cells[p] for p in positions]))
    label_pos = header.index(schema.label) if with_labels else -1

    rows: list[tuple[str, ...]] = []
    labels: list[int] = []
    width = len(header)
    for lineno, line in enumerate(lines, start=1):
        cells = line.split(",")
        if len(cells) != width:
            raise DatasetFormatError(
                f"{path}: row {lineno - 1} has {len(cells)} cells, expected {width}"
            )
        rows.append(pick(cells))
        if with_labels:
            raw = cells[label_pos]
            if raw not in ("0", "1"):
                raise DatasetFormatError(
                    f"{path}: row {lineno - 1} has non-binary label {raw!r}"
                )
            labels.append(int(raw))
    return tuple(rows), labels
