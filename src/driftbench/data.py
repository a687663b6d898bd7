"""Tabular stream data model: schemas, chronological datasets, block plans.

File formats (shared by every tool in the package):

* data file -- comma-separated UTF-8 text, one row per line, ``\\n``
  terminated, under a header of exactly the schema's feature names, then
  its label name if labeled.  A multi-valued cell joins its tokens with
  ``|`` inside the field; an empty cell means missing.
* schema file -- one ``name,kind`` line per column with kind one of
  ``num``, ``cat``, ``mvc``, ``time``, ``label``; exactly one label line
  and at least one other.

A :class:`ChronoDataset` holds its data file's bytes, an index of where
each row's line starts, and the labels.  A :class:`Block` is a run of its
rows held as their lines' bytes and their labels, cut from the dataset's
without a copy, so the judge holds a stream at about its file's size plus
the label-free copies of the blocks it is working on.  Cells become
strings only when a block's columns are asked for, from one split of its
text.
"""

from __future__ import annotations

import codecs
import enum
import io
import itertools
import numbers
import re
from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

MVC_SEPARATOR = "|"


class DatasetFormatError(ValueError):
    """A data or schema file violates the documented format."""


#: What ends a cell or a line in a comma-separated file, so no cell or name may hold it.
SEPARATORS = frozenset(",\n\r")


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
        if not self.columns:
            raise DatasetFormatError("schema declares no feature column")
        names = [name for name, _ in self.columns]
        for what, name in [("column", name) for name in names] + [("label", self.label)]:
            if not SEPARATORS.isdisjoint(name):
                raise DatasetFormatError(f"{what} name {name!r} holds a comma or a line break, "
                                         "which a schema file cannot hold")
            if not _encodes(name):
                raise DatasetFormatError(f"{what} name {name!r} holds a character UTF-8 "
                                         "cannot encode, which a schema file cannot hold")
        if len(set(names)) != len(names):
            name = next(name for name in names if names.count(name) > 1)
            raise DatasetFormatError(f"duplicate column name {name!r} in schema")
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
    """A time-ordered labeled table, held as the bytes of its data file.
    Row order is chronological and is never permuted by any operation in
    this package.

    ``text`` is the data file as UTF-8, with its newlines read as text mode
    reads them (``\\r\\n`` and ``\\r`` are ``\\n``) and a newline after its
    last line: the header line, then one line per row.  Row ``i`` is the
    line from ``starts[i]`` up to ``starts[i + 1]``.  :meth:`block` cuts
    rows from the text as a :class:`Block`, and no cell is parsed until a
    block's columns are asked for.

    :func:`load_dataset`, :meth:`from_rows` and stream synthesis
    (:func:`driftbench.synth.generate_drift_stream`) build datasets, and
    each checks every row, synthesis by one numpy check per chunk of rows
    that each line holds the schema's commas and one newline in ASCII, so
    the fields always describe a well-formed file.
    """

    schema: FeatureSchema
    text: bytes
    starts: np.ndarray          # shape (n + 1,): each row's line start, then len(text)
    labels: np.ndarray          # shape (n,), values in {0, 1}
    provenance: str = ""

    @classmethod
    def from_rows(cls, schema: FeatureSchema, rows: Iterable[tuple[str, ...]], labels,
                  provenance: str = "") -> "ChronoDataset":
        """The dataset of ``rows`` (cells in schema order) and ``labels``,
        held as the bytes of its data file: the header, then each row's
        cells and label joined by commas, one line a row.

        ``rows`` may be any iterable, a generator included: each row is
        written as it arrives and none is kept, so a dataset built from a
        generator peaks at about its bytes plus the rows the generator
        holds.  Raises :class:`DatasetFormatError` for a count of rows other
        than the count of labels, giving both, and naming the row for a
        label other than 0 or 1, a row of another width than the schema's,
        or a cell holding ``,``, ``\\n`` or ``\\r``, which would not read
        back from the file, and the row and column for a cell UTF-8 cannot
        encode (a lone surrogate).
        """
        labels = np.asarray(labels, dtype=np.int64)
        n = labels.shape[0]
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise DatasetFormatError(f"non-binary label at row {int(bad[0])}")
        out = io.BytesIO()
        rows = iter(rows)
        lines = _data_lines(schema, rows, labels.tolist())
        starts = array("q", [out.write(next(lines))])
        for line in lines:
            starts.append(starts[-1] + out.write(line))
        n_rows = len(starts) - 1 + sum(1 for _ in rows)
        if n_rows != n:
            raise DatasetFormatError(f"{n_rows} rows but {n} labels")
        # getvalue hands over the buffer the lines were written to, uncopied.
        return cls(schema, out.getvalue(), np.frombuffer(starts, dtype=np.int64), labels,
                   provenance)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def block(self, lo: int, hi: int) -> "Block":
        """Rows ``lo .. hi - 1`` as a labeled :class:`Block`, whose lines
        and labels are views of the dataset's, not copies."""
        lines = memoryview(self.text)[self.starts[lo]:self.starts[hi]]
        return Block(self.schema, lines, hi - lo, self.labels[lo:hi])


#: A labeled line's label cell with the newline that ends the line.  A
#: newline ends every line and no cell holds one, so each match is a label.
_LABEL_CELL = re.compile(rb",[01]\n")


@dataclass(frozen=True, eq=False)
class Block:
    """Consecutive rows of a data file, held as their lines' bytes.

    ``lines`` is the rows' lines exactly as the file holds them, each ended
    by a newline, and by its label cell as well when ``labels`` holds the
    rows' labels; an unlabeled block, as a predictor scores it, has
    ``labels`` None.  A block is cut from a dataset or an unlabeled file
    that was checked when it was made or read, so every line holds the
    schema's cells (and its label) and the bytes are UTF-8.

    :attr:`columns` cuts every feature column from one split of the text;
    :meth:`unlabeled` is the same rows without their label cells.  The
    columns and the label-free lines are computed once per block and kept
    with it, so a block is split at most once however many readers it has.
    """

    schema: FeatureSchema
    lines: bytes | memoryview
    n_rows: int
    labels: np.ndarray | None   # shape (n_rows,), or None without label cells

    def __len__(self) -> int:
        return self.n_rows

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    @cached_property
    def feature_lines(self) -> bytes | memoryview:
        """The lines without their label cells (``lines`` itself when the
        block carries none): one ``re.sub`` over the bytes."""
        return _LABEL_CELL.sub(b"\n", self.lines) if self.labeled else self.lines

    def unlabeled(self) -> "Block":
        """The same rows without their label cells: what a predictor is
        shown of a block it scores."""
        if not self.labeled:
            return self
        return Block(self.schema, self.feature_lines, self.n_rows, labels=None)

    @cached_property
    def columns(self) -> list[list[str]]:
        """Each feature column's cells in row order, in schema order.

        The text is split once, at every comma and newline; a row's cells
        then lie ``width`` apart (one more with a label cell), so column
        ``j`` is every such cell from the ``j``-th on.
        """
        width = self.schema.n_features
        if not self.n_rows:
            return [[] for _ in range(width)]
        stride = width + self.labeled
        flat = str(self.lines[:-1], "utf-8").replace("\n", ",").split(",")
        return [flat[j::stride] for j in range(width)]


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
    columns: list[tuple[str, FeatureKind]] = []
    label = None
    # Text mode reads every newline as "\n"; blank lines, the last one included, are skipped.
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
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
    try:
        return FeatureSchema(tuple(columns), label)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


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
    text, starts, labels = _read_data(data_path, schema, with_labels=True)
    return ChronoDataset(schema, text, starts, labels,
                         provenance if provenance is not None else str(data_path))


def read_unlabeled(data_path: str | Path, schema: FeatureSchema) -> Block:
    """Read a data file that carries feature columns only (no label) as
    one :class:`Block`, checked as :func:`load_dataset` checks a file.  The
    block's lines are a view of the file's bytes past the header, not a copy."""
    text, starts, _ = _read_data(data_path, schema, with_labels=False)
    return Block(schema, memoryview(text)[starts[0]:], starts.shape[0] - 1, labels=None)


def save_dataset(dataset: ChronoDataset, data_path: str | Path,
                 schema_path: str | Path) -> None:
    Path(data_path).write_bytes(dataset.text)
    write_schema(dataset.schema, schema_path)


def write_rows(path: str | Path, schema: FeatureSchema, block: Block) -> None:
    """Write ``block`` as a data file: ``schema``'s header, with its label
    name iff the block carries label cells, then the block's lines byte for
    byte.  The lines were checked when the block's dataset or file was, so
    they are not checked again; ``schema`` is the block's."""
    with open(path, "wb") as fh:
        fh.write(_header_line(schema, block.labeled))
        fh.write(block.lines)


def _header_line(schema: FeatureSchema, labeled: bool) -> bytes:
    """A data file's header line: the schema's names, then its label name
    iff the file carries labels."""
    return (",".join(schema.names + ((schema.label,) if labeled else ())) + "\n").encode()


def _encodes(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: a lone surrogate it cannot."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _data_lines(schema: FeatureSchema, rows: Iterable[tuple[str, ...]],
                labels: list[int]) -> Iterator[bytes]:
    """The data file of ``rows`` as UTF-8 lines, each with its newline: the
    header, then each row ended by its label."""
    width = schema.n_features
    yield _header_line(schema, labeled=True)
    # Labels first: zip stops at their end before it takes a row too many.
    for i, (y, row) in enumerate(zip(labels, rows)):
        if len(row) != width:
            raise DatasetFormatError(
                f"row {i} has {len(row)} cells, schema declares {width} features")
        line = ",".join(row)
        if line.count(",") != width - 1 or "\n" in line or "\r" in line:
            name, cell = next((name, cell) for name, cell in zip(schema.names, row)
                              if not SEPARATORS.isdisjoint(cell))
            raise DatasetFormatError(f"row {i}, column {name!r}: {cell!r} holds a comma "
                                     "or a line break, which a data file cannot hold")
        try:
            encoded = f"{line},{y}\n".encode("utf-8")
        except UnicodeEncodeError:
            name, cell = next((name, cell) for name, cell in zip(schema.names, row)
                              if not _encodes(cell))
            raise DatasetFormatError(f"row {i}, column {name!r}: {cell!r} holds a character "
                                     "UTF-8 cannot encode, which a data file cannot hold"
                                     ) from None
        yield encoded


#: Bytes decoded at a time when a data file's text is checked as UTF-8.
_UTF8_CHUNK = 1 << 20


def _read_data(path: str | Path, schema: FeatureSchema, *, with_labels: bool):
    """Index a data file: its text as :class:`ChronoDataset` holds it, each
    row's line start followed by the text's length, and the labels (none
    without labels).

    One pass over the bytes checks the text is UTF-8, the header is the
    schema's, and every line has the header's number of cells and, with
    labels, a label of 0 or 1, so each format error comes here and names
    the file and the row.  Only the header and the label cells are decoded,
    and nothing decoded is kept beside the bytes: a load peaks at about the
    file's size.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    if not text:
        raise DatasetFormatError(f"{path}: empty data file")
    # bytes.replace returns the text itself when there is nothing to replace.
    text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not text.endswith(b"\n"):
        text += b"\n"
    if not text.isascii():
        _check_utf8(path, text)
    head = text.find(b"\n")
    header = text[:head].decode("utf-8").split(",")
    expected = list(schema.names) + ([schema.label] if with_labels else [])
    for i, (got, want) in enumerate(itertools.zip_longest(header, expected)):
        if got != want:
            raise DatasetFormatError(
                f"{path}: header cell {i + 1} is {'missing' if got is None else repr(got)}, "
                f"the schema expects {'no cell' if want is None else repr(want)} there")
    width = len(header)

    starts = array("q", [head + 1])
    labels = array("q")
    pos = head + 1
    while pos < len(text):
        end = text.find(b"\n", pos)
        cells = text.count(b",", pos, end) + 1
        if cells != width:
            raise DatasetFormatError(
                f"{path}: row {len(starts) - 1} has {cells} cells, expected {width}")
        if with_labels:
            raw = text[text.rfind(b",", pos, end) + 1:end]
            if raw != b"0" and raw != b"1":
                raise DatasetFormatError(
                    f"{path}: row {len(starts) - 1} has non-binary label {raw.decode()!r}")
            labels.append(raw == b"1")
        pos = end + 1
        starts.append(pos)
    return text, np.frombuffer(starts, dtype=np.int64), np.frombuffer(labels, dtype=np.int64)


def _check_utf8(path: str | Path, text: bytes) -> None:
    """Raise :class:`DatasetFormatError` naming the first line of ``text``
    that is not UTF-8.  The text is decoded ``_UTF8_CHUNK`` bytes at a
    time, so no decoded copy of it is made."""
    view = memoryview(text)
    pos = 0
    while pos < len(text):
        final = pos + _UTF8_CHUNK >= len(text)
        try:
            # A character cut at the chunk's end is left for the next chunk.
            pos += codecs.utf_8_decode(view[pos:pos + _UTF8_CHUNK], "strict", final)[1]
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, pos + exc.start)
            where = f"row {line - 1}" if line else "header"
            raise DatasetFormatError(f"{path}: {where} is not UTF-8 text") from None
