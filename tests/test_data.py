import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench.data import (
    BlockPlanError,
    ChronoDataset,
    DatasetFormatError,
    FeatureKind,
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
    assert ds.rows[0] == ("1.5", "red")
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
    assert ds.rows == (("red",), ("",))
    unlabeled = tmp_path / "u.csv"
    unlabeled.write_text("color\nblue\n")
    assert read_unlabeled(unlabeled, ds.schema) == (("blue",),)


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
    assert ds.rows == FORMAT_ROWS
    assert ds.labels.tolist() == [0, 1]


@pytest.mark.parametrize("end", ["\n", ""])
def test_reader_header_only_file_has_no_rows(tmp_path, end):
    data, schema = write_pair(tmp_path, "x,color,y" + end, SCHEMA_2COL)
    ds = load_dataset(data, schema)
    assert (ds.rows, ds.labels.tolist()) == ((), [])
    data.write_text("x,color" + end)
    assert read_unlabeled(data, ds.schema) == ()


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
    assert ds.rows == (("1.0", "caf\u00e9"), ("2.0", "\u00fcber"))
    assert ds.labels.tolist() == [0, 1]


def test_block_parses_rows_in_schema_order(tmp_path):
    data, schema = write_pair(
        tmp_path, "x,color,y\r\n" + "".join(f"{i}.5,c{i},{i % 2}\r\n" for i in range(7)),
        SCHEMA_2COL)
    ds = load_dataset(data, schema)
    assert len(ds) == 7
    assert ds.block(2, 5) == (("2.5", "c2"), ("3.5", "c3"), ("4.5", "c4"))
    assert ds.block(3, 3) == ()
    assert ds.rows == ds.block(0, 4) + ds.block(4, 7)


def test_dataset_from_rows_holds_the_bytes_write_rows_writes(tmp_path):
    ds = generate_drift_stream(desk_spec("E", n_rows=120, n_blocks=4, seed=3))
    write_rows(tmp_path / "rows.csv", ds.schema, ds.rows, ds.labels)
    assert ds.text == (tmp_path / "rows.csv").read_bytes()
    save_dataset(ds, tmp_path / "saved.csv", tmp_path / "saved.schema.csv")
    assert (tmp_path / "saved.csv").read_bytes() == ds.text
    assert ds.block(30, 60) == ds.rows[30:60]
    streamed = ChronoDataset.from_rows(ds.schema, (row for row in ds.rows), ds.labels)
    assert streamed.text == ds.text
    assert np.array_equal(streamed.starts, ds.starts)
    assert np.array_equal(streamed.labels, ds.labels)


#: The three writers of a data file, each given the schema, rows and a path.
ROW_WRITERS = {
    "from_rows": lambda schema, rows, path: ChronoDataset.from_rows(schema, rows, [0, 1, 0]),
    "write_rows": lambda schema, rows, path: write_rows(path, schema, rows, [0, 1, 0]),
    "write_rows-unlabeled": lambda schema, rows, path: write_rows(path, schema, rows),
}


@pytest.mark.parametrize("writer, cell", [
    pytest.param(writer, cell, id=cell if writer == "from_rows" else f"{writer}-{cell}")
    for writer in ROW_WRITERS for cell in ["a,b", "a\nb", "a\rb", "\r\n"]])
def test_dataset_from_rows_refuses_a_separator_in_a_cell(tmp_path, writer, cell):
    # Such a cell ran in memory, and its saved file failed to load
    # ("row 1 has 3 cells, expected 2"); write_rows wrote such a file for a
    # step of an external predictor without a word.
    rows = (("1.0", "red"), ("2.0", cell), ("3.0", "blue"))
    schema = FeatureSchema((("x", FeatureKind.NUMERICAL), ("color", FeatureKind.CATEGORICAL)),
                           "y")
    with pytest.raises(DatasetFormatError) as info:
        ROW_WRITERS[writer](schema, rows, tmp_path / "rows.csv")
    assert str(info.value) == (f"row 1, column 'color': {cell!r} holds a comma or a line "
                               "break, which a data file cannot hold")


# Column names and cells that a data file can hold, non-ASCII and empty ones included.
FILE_TEXT = st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), max_size=6)


@st.composite
def schemas_rows_and_labels(draw):
    names = draw(st.lists(FILE_TEXT, min_size=2, max_size=5, unique=True))
    kinds = draw(st.lists(st.sampled_from(FeatureKind), min_size=len(names) - 1,
                          max_size=len(names) - 1))
    schema = FeatureSchema(tuple(zip(names[:-1], kinds)), names[-1])
    rows = draw(st.lists(st.tuples(*[FILE_TEXT] * schema.n_features), max_size=8))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return schema, rows, labels


@settings(max_examples=200, derandomize=True, deadline=None)
@given(schemas_rows_and_labels())
def test_written_rows_read_back(tmp_path_factory, drawn):
    schema, rows, labels = drawn
    tmp_path = tmp_path_factory.mktemp("roundtrip")
    write_schema(schema, tmp_path / "s.csv")
    write_rows(tmp_path / "d.csv", schema, rows, labels)
    assert ChronoDataset.from_rows(schema, rows, labels).text == (tmp_path / "d.csv").read_bytes()
    loaded = load_dataset(tmp_path / "d.csv", tmp_path / "s.csv")
    assert (loaded.rows, loaded.labels.tolist()) == (tuple(rows), labels)
    write_rows(tmp_path / "u.csv", schema, rows)
    assert read_unlabeled(tmp_path / "u.csv", schema) == tuple(rows)


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
    assert loaded.rows == ds.rows
    assert loaded.labels.tolist() == ds.labels.tolist()
    save_dataset(loaded, tmp_path / "b2.csv", tmp_path / "b2.schema.csv")
    assert (tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes()
    assert (tmp_path / "b1.schema.csv").read_bytes() == (tmp_path / "b2.schema.csv").read_bytes()


def test_load_preserves_chronological_order(tmp_path):
    rows = "\n".join(f"{i}.0,c{i},{i % 2}" for i in range(20))
    data, schema = write_pair(tmp_path, "x,color,y\n" + rows + "\n", SCHEMA_2COL)
    ds = load_dataset(data, schema)
    assert [r[0] for r in ds.rows] == [f"{i}.0" for i in range(20)]


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
