import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench.data import (
    BlockPlanError,
    ChronoDataset,
    DatasetFormatError,
    FeatureKind,
    SEPARATORS,
    FeatureSchema,
    load_dataset,
    plan_blocks,
    read_schema,
    read_unlabeled,
    save_dataset,
    write_rows,
    write_schema,
)
from driftbench import data as data_module
from driftbench.synth import desk_spec, generate_drift_stream


def rows_of(block):
    """A block's rows as tuples of cells in schema order: how a test reads
    what a block holds."""
    return tuple(zip(*block.columns))


def all_rows(ds):
    """Every row of ``ds`` as tuples of cells in schema order."""
    return rows_of(ds.block(0, len(ds)))


def write_pair(tmp_path, data_text, schema_text):
    data = tmp_path / "d.csv"
    schema = tmp_path / "s.csv"
    data.write_text(data_text)
    schema.write_text(schema_text)
    return data, schema


SCHEMA_2COL = "x,num\ncolor,cat\ny,label\n"


def test_load_small_dataset(tmp_path):
    data, schema = write_pair(
        tmp_path,
        "x,color,y\n1.5,red,0\n2.0,blue,1\n2.5,red,0\n3.0,green,1\n",
        SCHEMA_2COL,
    )
    ds = load_dataset(data, schema)
    assert len(ds) == 4
    assert ds.schema.names == ("x", "color")
    assert ds.schema.kinds == (FeatureKind.NUMERICAL, FeatureKind.CATEGORICAL)
    assert rows_of(ds.block(0, 1)) == (("1.5", "red"),)
    assert ds.labels.tolist() == [0, 1, 0, 1]


def test_column_order_follows_schema_not_file(tmp_path):
    # The schema alone gives the column order: a file whose header lists
    # the same columns in another order is refused, not reordered.
    data, schema = write_pair(
        tmp_path,
        "color,y,x\nred,0,1.5\nblue,1,2.0\n",
        SCHEMA_2COL,
    )
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(data, schema)
    assert str(info.value) == f"{data}: header cell 1 is 'color', the schema expects 'x' there"


def test_one_feature_file_loads_as_one_tuples(tmp_path):
    data, schema = write_pair(tmp_path, "color,y\nred,0\n,1\n", "color,cat\ny,label\n")
    ds = load_dataset(data, schema)
    assert all_rows(ds) == (("red",), ("",))
    unlabeled = tmp_path / "u.csv"
    unlabeled.write_text("color\nblue\n")
    block = read_unlabeled(unlabeled, ds.schema)
    assert (rows_of(block), len(block), block.labeled) == ((("blue",),), 1, False)


def test_non_binary_label_names_row(tmp_path):
    data, schema = write_pair(
        tmp_path, "x,color,y\n1.0,red,0\n2.0,blue,2\n", SCHEMA_2COL
    )
    with pytest.raises(DatasetFormatError, match="row 1"):
        load_dataset(data, schema)


def test_ragged_row_names_row(tmp_path):
    data, schema = write_pair(
        tmp_path, "x,color,y\n1.0,red,0\n2.0,1\n", SCHEMA_2COL
    )
    with pytest.raises(DatasetFormatError, match="row 1"):
        load_dataset(data, schema)


def test_missing_column_in_header(tmp_path):
    data, schema = write_pair(tmp_path, "x,y\n1.0,0\n", SCHEMA_2COL)
    with pytest.raises(DatasetFormatError, match="color"):
        load_dataset(data, schema)
    data.write_text("x,color\n1.0,red\n")
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(data, schema)
    assert str(info.value) == f"{data}: header cell 3 is missing, the schema expects 'y' there"


@pytest.mark.parametrize("header, column", [("x,color,x,y", "x"), ("x,color,y,y", "y")])
def test_repeated_header_column_names_file_and_column(tmp_path, header, column):
    data, schema = write_pair(tmp_path, f"{header}\n1.0,red,0,1\n", SCHEMA_2COL)
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(data, schema)
    cell, expected = (3, "'y'") if column == "x" else (4, "no cell")
    assert str(info.value) == (f"{data}: header cell {cell} is {column!r}, "
                               f"the schema expects {expected} there")


# What the reader accepts, line by line, and the errors it gives.
FORMAT_ROWS = (("1.0", "red"), ("2.0", "blue"))


@pytest.mark.parametrize("body", [
    b"x,color,y\r\n1.0,red,0\r\n2.0,blue,1\r\n",
    b"x,color,y\r1.0,red,0\r2.0,blue,1\r",
    b"x,color,y\n1.0,red,0\n2.0,blue,1",
], ids=["crlf", "cr", "no-final-newline"])
def test_reader_line_ends(tmp_path, body):
    data, schema = write_pair(tmp_path, "", SCHEMA_2COL)
    data.write_bytes(body)
    ds = load_dataset(data, schema)
    assert all_rows(ds) == FORMAT_ROWS
    assert ds.labels.tolist() == [0, 1]


@pytest.mark.parametrize("end", ["\n", ""])
def test_reader_header_only_file_has_no_rows(tmp_path, end):
    data, schema = write_pair(tmp_path, "x,color,y" + end, SCHEMA_2COL)
    ds = load_dataset(data, schema)
    assert (all_rows(ds), ds.labels.tolist()) == ((), [])
    data.write_text("x,color" + end)
    block = read_unlabeled(data, ds.schema)
    assert (rows_of(block), len(block), block.columns) == ((), 0, [[], []])


@pytest.mark.parametrize("text, message", [
    ("", "empty data file"),
    ("x,color,y\n1.0,red,0\n\n2.0,blue,1\n", "row 1 has 1 cells, expected 3"),
    ("x,color,y\n1.0,red,0\n2.0,blue,1\n\n", "row 2 has 1 cells, expected 3"),
    ("x,color,y\n1.0,red,0\n2.0,blue\n", "row 1 has 2 cells, expected 3"),
    ("x,color,y\r\n1.0,red,0\r\n2.0,blue\r\n", "row 1 has 2 cells, expected 3"),
    ("x,color,y\n1.0,red,0\n2.0,blue,1,\n", "row 1 has 4 cells, expected 3"),
], ids=["empty", "blank-line", "two-final-newlines", "short-row", "short-row-crlf",
        "long-row"])
def test_reader_format_errors_name_file_and_row(tmp_path, text, message):
    data, schema = write_pair(tmp_path, "", SCHEMA_2COL)
    data.write_bytes(text.encode())
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(data, schema)
    assert str(info.value) == f"{data}: {message}"


@pytest.mark.parametrize("body, where", [
    (b"x,color,y\n1.0,red,0\n2.0,bl\xffue,1\n", "row 1"),
    (b"x,col\xc3or,y\n1.0,red,0\n", "header"),
    (b"x,color,y\r\n1.0,red,0\r\n2.0,blue,1\r\n3.0,caf\xc3", "row 2"),
], ids=["row", "header", "cut-short-at-end"])
def test_non_utf8_byte_names_file_and_row(tmp_path, body, where):
    # Read as text, such a file raised a bare UnicodeDecodeError with a
    # byte position, which a suite reported as a predictor error.
    data, schema = write_pair(tmp_path, "", SCHEMA_2COL)
    data.write_bytes(body)
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(data, schema)
    assert str(info.value) == f"{data}: {where} is not UTF-8 text"


def test_utf8_cells_load_across_decode_chunks(tmp_path, monkeypatch):
    # Chunks of 3 bytes cut each two-byte character somewhere.
    monkeypatch.setattr(data_module, "_UTF8_CHUNK", 3)
    text = "x,color,y\n1.0,caf\u00e9,0\n2.0,\u00fcber,1\n"
    data, schema = write_pair(tmp_path, "", SCHEMA_2COL)
    data.write_bytes(text.encode("utf-8"))
    ds = load_dataset(data, schema)
    assert all_rows(ds) == (("1.0", "caf\u00e9"), ("2.0", "\u00fcber"))
    assert ds.labels.tolist() == [0, 1]


def test_block_parses_rows_in_schema_order(tmp_path):
    data, schema = write_pair(
        tmp_path, "x,color,y\r\n" + "".join(f"{i}.5,c{i},{i % 2}\r\n" for i in range(7)),
        SCHEMA_2COL)
    ds = load_dataset(data, schema)
    assert len(ds) == 7
    block = ds.block(2, 5)
    assert (len(block), block.labeled) == (3, True)
    assert bytes(block.lines) == b"2.5,c2,0\n3.5,c3,1\n4.5,c4,0\n"
    assert block.columns == [["2.5", "3.5", "4.5"], ["c2", "c3", "c4"]]
    assert bytes(block.unlabeled().lines) == b"2.5,c2\n3.5,c3\n4.5,c4\n"
    assert block.unlabeled().columns == block.columns
    assert rows_of(ds.block(3, 3)) == ()
    assert all_rows(ds) == rows_of(ds.block(0, 4)) + rows_of(ds.block(4, 7))


def test_an_unlabeled_block_carries_no_labels(tmp_path):
    data, schema = write_pair(tmp_path, "x,color,y\n1.5,red,0\n2.0,blue,1\n", SCHEMA_2COL)
    ds = load_dataset(data, schema)
    block = ds.block(0, 2)
    assert (block.labels.tolist(), block.labeled) == ([0, 1], True)
    assert (block.unlabeled().labels, block.unlabeled().labeled) == (None, False)
    write_rows(tmp_path / "u.csv", ds.schema, block.unlabeled())
    read = read_unlabeled(tmp_path / "u.csv", ds.schema)
    assert (read.labels, read.labeled) == (None, False)
    assert read.unlabeled() is read


def test_dataset_from_rows_holds_the_bytes_write_rows_writes(tmp_path):
    ds = generate_drift_stream(desk_spec("E", n_rows=120, n_blocks=4, seed=3))
    write_rows(tmp_path / "rows.csv", ds.schema, ds.block(0, len(ds)))
    assert ds.text == (tmp_path / "rows.csv").read_bytes()
    save_dataset(ds, tmp_path / "saved.csv", tmp_path / "saved.schema.csv")
    assert (tmp_path / "saved.csv").read_bytes() == ds.text
    assert rows_of(ds.block(30, 60)) == all_rows(ds)[30:60]
    streamed = ChronoDataset.from_rows(ds.schema, (row for row in all_rows(ds)), ds.labels)
    assert streamed.text == ds.text
    assert np.array_equal(streamed.starts, ds.starts)
    assert np.array_equal(streamed.labels, ds.labels)


@pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb", "\r\n"])
def test_dataset_from_rows_refuses_a_separator_in_a_cell(cell):
    # Such a cell ran in memory, and its saved file failed to load
    # ("row 1 has 3 cells, expected 2").  The only other writer of a data
    # file, write_rows, writes a block's lines, which come from such a
    # dataset or a checked file.
    rows = (("1.0", "red"), ("2.0", cell), ("3.0", "blue"))
    schema = FeatureSchema((("x", FeatureKind.NUMERICAL), ("color", FeatureKind.CATEGORICAL)),
                           "y")
    with pytest.raises(DatasetFormatError) as info:
        ChronoDataset.from_rows(schema, rows, [0, 1, 0])
    assert str(info.value) == (f"row 1, column 'color': {cell!r} holds a comma or a line "
                               "break, which a data file cannot hold")


def test_dataset_from_rows_refuses_a_cell_utf8_cannot_encode():
    # A lone surrogate ended from_rows in a bare UnicodeEncodeError.
    rows = (("1.0", "red"), ("2.0", "x\ud800"), ("3.0", "blue"))
    schema = FeatureSchema((("x", FeatureKind.NUMERICAL), ("color", FeatureKind.CATEGORICAL)),
                           "y")
    with pytest.raises(DatasetFormatError) as info:
        ChronoDataset.from_rows(schema, rows, [0, 1, 0])
    assert str(info.value) == ("row 1, column 'color': 'x\\ud800' holds a character UTF-8 "
                               "cannot encode, which a data file cannot hold")


# Column names and cells that a data file can hold, non-ASCII and empty ones included.
FILE_TEXT = st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), max_size=6)


@st.composite
def schemas_rows_and_labels(draw, cells=FILE_TEXT):
    names = draw(st.lists(FILE_TEXT, min_size=2, max_size=5, unique=True))
    kinds = draw(st.lists(st.sampled_from(FeatureKind), min_size=len(names) - 1,
                          max_size=len(names) - 1))
    schema = FeatureSchema(tuple(zip(names[:-1], kinds)), names[-1])
    rows = draw(st.lists(st.tuples(*[cells] * schema.n_features), max_size=8))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return schema, rows, labels


@settings(max_examples=200, derandomize=True, deadline=None)
@given(schemas_rows_and_labels())
def test_written_rows_read_back(tmp_path_factory, drawn):
    schema, rows, labels = drawn
    tmp_path = tmp_path_factory.mktemp("roundtrip")
    write_schema(schema, tmp_path / "s.csv")
    ds = ChronoDataset.from_rows(schema, rows, labels)
    write_rows(tmp_path / "d.csv", schema, ds.block(0, len(ds)))
    assert ds.text == (tmp_path / "d.csv").read_bytes()
    loaded = load_dataset(tmp_path / "d.csv", tmp_path / "s.csv")
    assert (all_rows(loaded), loaded.labels.tolist()) == (tuple(rows), labels)
    write_rows(tmp_path / "u.csv", schema, ds.block(0, len(ds)).unlabeled())
    assert rows_of(read_unlabeled(tmp_path / "u.csv", schema)) == tuple(rows)


# ---------------------------------------------------------------------------
# oracle: the row encoder that staged a step's files before blocks were
# written as their bytes


def oracle_data_lines(schema, rows, labels):
    width = schema.n_features
    if labels is None:
        header, ends = schema.names, itertools.repeat("\n")
    else:
        header, ends = schema.names + (schema.label,), (f",{y}\n" for y in labels)
    yield (",".join(header) + "\n").encode("utf-8")
    for i, (end, row) in enumerate(zip(ends, rows)):
        if len(row) != width:
            raise DatasetFormatError(
                f"row {i} has {len(row)} cells, schema declares {width} features")
        line = ",".join(row)
        if line.count(",") != width - 1 or "\n" in line or "\r" in line:
            name, cell = next((name, cell) for name, cell in zip(schema.names, row)
                              if not SEPARATORS.isdisjoint(cell))
            raise DatasetFormatError(f"row {i}, column {name!r}: {cell!r} holds a comma "
                                     "or a line break, which a data file cannot hold")
        yield (line + end).encode("utf-8")


def assert_staged_bytes_match_the_oracle(ds, ranges, tmp_path):
    """Each block of ``ds`` written labeled and unlabeled, as a step's train
    and test files are, holds the bytes the row encoder wrote."""
    rows, labels = all_rows(ds), ds.labels.tolist()
    for lo, hi in ranges:
        block = ds.block(lo, hi)
        write_rows(tmp_path / "train.csv", ds.schema, block)
        write_rows(tmp_path / "test.csv", ds.schema, block.unlabeled())
        train = b"".join(oracle_data_lines(ds.schema, rows[lo:hi], labels[lo:hi]))
        test = b"".join(oracle_data_lines(ds.schema, rows[lo:hi], None))
        assert (tmp_path / "train.csv").read_bytes() == train
        assert (tmp_path / "test.csv").read_bytes() == test


def crlf_sourced(ds, tmp_path):
    """``ds`` as loaded from a file written with ``\\r\\n`` line ends."""
    data, schema = tmp_path / "crlf.csv", tmp_path / "crlf.schema.csv"
    data.write_bytes(ds.text.replace(b"\n", b"\r\n"))
    write_schema(ds.schema, schema)
    loaded = load_dataset(data, schema)
    assert loaded.text == ds.text
    return loaded


@pytest.mark.parametrize("shape", "ABCDE")
def test_staged_bytes_match_the_row_encoder_on_generated_streams(tmp_path, shape):
    ds = generate_drift_stream(desk_spec(shape, n_rows=300, n_blocks=4, seed=11))
    ranges = plan_blocks(len(ds), 4)
    assert_staged_bytes_match_the_oracle(ds, ranges, tmp_path)
    assert_staged_bytes_match_the_oracle(crlf_sourced(ds, tmp_path), ranges, tmp_path)


@pytest.fixture(scope="module")
def generated_streams(tmp_path_factory):
    """Shapes A-E at desk scale, each also as loaded from a CRLF file."""
    streams = []
    for shape in "ABCDE":
        ds = generate_drift_stream(desk_spec(shape, n_rows=300, n_blocks=4, seed=11))
        streams += [ds, crlf_sourced(ds, tmp_path_factory.mktemp(shape))]
    return streams


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_a_blocks_labels_are_its_lines_label_cells(generated_streams, data):
    ds = data.draw(st.sampled_from(generated_streams))
    lo = data.draw(st.integers(0, len(ds)))
    hi = data.draw(st.integers(lo, len(ds)))
    block = ds.block(lo, hi)
    cells = [int(line.rsplit(b",", 1)[1]) for line in bytes(block.lines).split(b"\n")[:-1]]
    assert block.labels.tolist() == cells == ds.labels[lo:hi].tolist()


#: Cells whose last bytes look like a label cell, or that are not ASCII.
LABEL_LIKE = st.sampled_from(["0", "1", "", "10", "01", ",", "x,0", "1\u00e9", "\u00e9", " 1"])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(schemas_rows_and_labels(st.one_of(LABEL_LIKE.filter(lambda c: "," not in c), FILE_TEXT)),
       st.integers(2, 3))
def test_staged_bytes_match_the_row_encoder_on_drawn_tables(tmp_path_factory, drawn, n_blocks):
    # A last feature cell of "0" or "1" ends its unlabeled line as a label
    # cell does: stripping ",0\n" and then ",1\n" in two passes would eat it.
    schema, rows, labels = drawn
    tmp_path = tmp_path_factory.mktemp("staged")
    ds = ChronoDataset.from_rows(schema, rows, labels)
    ranges = ((0, len(ds)),)
    if len(ds) >= n_blocks:
        ranges += plan_blocks(len(ds), n_blocks)
    assert_staged_bytes_match_the_oracle(ds, ranges, tmp_path)
    assert_staged_bytes_match_the_oracle(crlf_sourced(ds, tmp_path), ranges, tmp_path)


def test_unknown_kind_token(tmp_path):
    data, schema = write_pair(
        tmp_path, "x,y\n1.0,0\n", "x,numeric\ny,label\n"
    )
    with pytest.raises(DatasetFormatError, match="numeric"):
        load_dataset(data, schema)


def test_schema_needs_exactly_one_label(tmp_path):
    schema = tmp_path / "s.csv"
    schema.write_text("x,num\n")
    with pytest.raises(DatasetFormatError, match="no label"):
        read_schema(schema)
    schema.write_text("x,num\ny,label\nz,label\n")
    with pytest.raises(DatasetFormatError, match="more than one label"):
        read_schema(schema)


def test_schema_needs_a_feature_column(tmp_path):
    # Without one, from_rows crashed on its first row (StopIteration) and
    # write_rows wrote lines of two cells under a header of one.
    schema = tmp_path / "s.csv"
    schema.write_text("y,label\n")
    with pytest.raises(DatasetFormatError) as info:
        read_schema(schema)
    assert str(info.value) == f"{schema}: schema declares no feature column"
    with pytest.raises(DatasetFormatError, match="^schema declares no feature column$"):
        FeatureSchema((), "y")


@pytest.mark.parametrize("text, message", [
    ("x,num\nx,cat\ny,label\n", "duplicate column name 'x' in schema"),
    ("x,num\ny,num\ny,label\n", "label column 'y' also listed as a feature"),
], ids=["repeated-column", "label-as-feature"])
def test_schema_file_errors_name_the_file(tmp_path, text, message):
    # Over several datasets, an error without the path does not say which
    # schema is at fault.
    schema = tmp_path / "s.csv"
    schema.write_text(text)
    with pytest.raises(DatasetFormatError) as info:
        read_schema(schema)
    assert str(info.value) == f"{schema}: {message}"


def test_schema_unknown_kind_names_file_line_and_token(tmp_path):
    schema = tmp_path / "s.csv"
    schema.write_text("x,num\nc,xyz\ny,label\n")
    with pytest.raises(DatasetFormatError) as info:
        read_schema(schema)
    assert str(info.value) == f"{schema}: schema line 2 has unknown feature kind 'xyz'"


def test_schema_roundtrip(tmp_path):
    schema = FeatureSchema(
        (("a", FeatureKind.NUMERICAL), ("b", FeatureKind.MULTI_CATEGORICAL),
         ("t", FeatureKind.TIME)),
        label="y",
    )
    path = tmp_path / "s.csv"
    write_schema(schema, path)
    assert read_schema(path) == schema
    # A name holding a separator would write a file that reads back as
    # another schema or not at all, so it is refused when the schema is made.
    for name in ("a,b", "a\nb", "a\rb"):
        with pytest.raises(DatasetFormatError) as info:
            FeatureSchema(((name, FeatureKind.NUMERICAL),), "y")
        assert str(info.value) == (f"column name {name!r} holds a comma or a line break, "
                                   "which a schema file cannot hold")
        with pytest.raises(DatasetFormatError) as info:
            FeatureSchema((("a", FeatureKind.NUMERICAL),), name)
        assert str(info.value) == (f"label name {name!r} holds a comma or a line break, "
                                   "which a schema file cannot hold")


@pytest.mark.parametrize("what", ["column", "label"])
def test_schema_refuses_a_name_utf8_cannot_encode(tmp_path, what):
    # FeatureSchema took a lone surrogate, and write_schema then ended in a
    # bare UnicodeEncodeError.
    name = "x\ud800"
    columns = ((name if what == "column" else "a", FeatureKind.NUMERICAL),)
    with pytest.raises(DatasetFormatError) as info:
        FeatureSchema(columns, name if what == "label" else "y")
    assert str(info.value) == (f"{what} name 'x\\ud800' holds a character UTF-8 cannot "
                               "encode, which a schema file cannot hold")


def test_duplicate_column_rejected():
    with pytest.raises(DatasetFormatError, match="duplicate"):
        FeatureSchema((("a", FeatureKind.NUMERICAL), ("a", FeatureKind.CATEGORICAL)), "y")


def test_label_listed_as_feature_rejected():
    with pytest.raises(DatasetFormatError, match="label"):
        FeatureSchema((("y", FeatureKind.NUMERICAL),), "y")


def test_dataset_roundtrip_is_byte_identical(tmp_path):
    # Desk-scale analog of the public stream with 17 cat + 7 num + 1 mvc
    # features (25 in total).
    spec = desk_spec("B", n_rows=400, n_blocks=10, seed=5)
    assert spec.n_features == 25
    ds = generate_drift_stream(spec)
    save_dataset(ds, tmp_path / "b1.csv", tmp_path / "b1.schema.csv")
    loaded = load_dataset(tmp_path / "b1.csv", tmp_path / "b1.schema.csv")
    assert all_rows(loaded) == all_rows(ds)
    assert loaded.labels.tolist() == ds.labels.tolist()
    save_dataset(loaded, tmp_path / "b2.csv", tmp_path / "b2.schema.csv")
    assert (tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes()
    assert (tmp_path / "b1.schema.csv").read_bytes() == (tmp_path / "b2.schema.csv").read_bytes()


def test_load_preserves_chronological_order(tmp_path):
    rows = "\n".join(f"{i}.0,c{i},{i % 2}" for i in range(20))
    data, schema = write_pair(tmp_path, "x,color,y\n" + rows + "\n", SCHEMA_2COL)
    ds = load_dataset(data, schema)
    assert ds.block(0, len(ds)).columns[0] == [f"{i}.0" for i in range(20)]


def test_mismatched_rows_and_labels_rejected():
    schema = FeatureSchema((("x", FeatureKind.NUMERICAL),), "y")
    with pytest.raises(DatasetFormatError):
        ChronoDataset.from_rows(schema, (("1.0",), ("2.0",)), np.array([0]))
    # A generator's rows are counted as they arrive, those past the labels too.
    for n_rows, message in ((2, "^2 rows but 3 labels$"), (4, "^4 rows but 3 labels$")):
        rows = ((f"{i}.0",) for i in range(n_rows))
        with pytest.raises(DatasetFormatError, match=message):
            ChronoDataset.from_rows(schema, rows, np.array([0, 1, 0]))


# ---------------------------------------------------------------------------
# block plans


def test_split_even():
    ranges = plan_blocks(100, 10)
    assert ranges == tuple((i * 10, (i + 1) * 10) for i in range(10))


def brute_force_sizes(n_rows, n_blocks):
    # Independent statement of the remainder rule: earliest blocks absorb
    # the extra rows, everything else stays at the base size.
    sizes = [n_rows // n_blocks] * n_blocks
    for i in range(n_rows % n_blocks):
        sizes[i] += 1
    return sizes


def test_split_remainder_rule():
    ranges = plan_blocks(103, 10)
    sizes = [hi - lo for lo, hi in ranges]
    assert sizes == [11, 11, 11, 10, 10, 10, 10, 10, 10, 10]
    assert sizes == brute_force_sizes(103, 10)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(103))


def test_split_rejects_bad_counts():
    with pytest.raises(BlockPlanError):
        plan_blocks(5, 6)
    with pytest.raises(BlockPlanError):
        plan_blocks(100, 1)


def test_plan_blocks_on_dataset(tmp_path):
    data, schema = write_pair(
        tmp_path,
        "x,color,y\n" + "".join(f"{i},c,{i % 2}\n" for i in range(10)),
        SCHEMA_2COL,
    )
    ranges = plan_blocks(len(load_dataset(data, schema)), 5)
    assert len(ranges) == 5
    assert ranges[-1][1] == 10


def test_block_plan_invariants_hold_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_rows = int(rng.integers(2, 500))
        n_blocks = int(rng.integers(2, n_rows + 1))
        ranges = plan_blocks(n_rows, n_blocks)
        sizes = [hi - lo for lo, hi in ranges]
        assert sizes == brute_force_sizes(n_rows, n_blocks)
        assert max(sizes) - min(sizes) <= 1
        # contiguous ascending cover of [0, n_rows)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_rows
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
