import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench.data import ChronoDataset, DatasetFormatError, FeatureKind, FeatureSchema, plan_blocks
from driftbench.encoding import extend_ordinal, fit_dataset_encoders, transform_rows
from driftbench.synth import desk_spec, generate_drift_stream

from test_data import crlf_sourced


def _schema(kinds):
    return FeatureSchema(tuple((f"c{i}", FeatureKind(k)) for i, k in enumerate(kinds)), "y")


def _dataset(rows, labels, kinds=("num", "cat")):
    return ChronoDataset.from_rows(_schema(kinds), tuple(rows), np.asarray(labels))


def _column_block(values, column):
    """A one-column block of ``values``."""
    ds = _dataset([(v,) for v in values], [0] * len(values), kinds=(column,))
    return ds.block(0, len(ds))


def _fit(values, column="cat"):
    """The codes of a one-column table of ``values``."""
    return fit_dataset_encoders(_column_block(values, column))["c0"]


def _transform(encoder, values, column="cat"):
    return transform_rows(_column_block(values, column), {"c0": encoder})[:, 0]


def _encode(ds):
    block = ds.block(0, len(ds))
    encoders = fit_dataset_encoders(block)
    return transform_rows(block, encoders), encoders


def test_ordinal_first_appearance_codes():
    enc = _fit(["a", "b", "a", "c"])
    assert enc == {"a": 1, "b": 2, "c": 3}


def test_ordinal_unseen_maps_to_zero():
    enc = _fit(["a", "b", "a", "c"])
    assert _transform(enc, ["c", "z"]).tolist() == [3.0, 0.0]


def test_mvc_ordinal_codes_whole_cell():
    enc = _fit(["a|b", "a", "a|b"], column="mvc")
    assert _transform(enc, ["a|b", "b|a"], column="mvc").tolist() == [1.0, 0.0]


def test_numeric_column_parses():
    ds = _dataset([("1.5",), ("2.0",)], [0, 1], kinds=("num",))
    matrix, _ = _encode(ds)
    assert matrix.tolist() == [[1.5], [2.0]]


def test_missing_numeric_is_zero():
    ds = _dataset([("",), ("2.0",)], [0, 1], kinds=("num",))
    matrix, _ = _encode(ds)
    assert matrix.tolist() == [[0.0], [2.0]]


def test_bad_numeric_names_row_and_column():
    ds = _dataset([("1.0",), ("oops",)], [0, 1], kinds=("num",))
    with pytest.raises(DatasetFormatError, match="row 1.*c0"):
        _encode(ds)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e309"])
def test_non_finite_numeric_names_row_and_column(cell):
    ds = _dataset([("1.0",), (cell,)], [0, 1], kinds=("num",))
    with pytest.raises(DatasetFormatError, match=f"row 1, column 'c0': '{cell}'"):
        _encode(ds)


@pytest.mark.parametrize("cell", ["1" * 400, "-" + "1" * 400])
def test_oversized_time_names_row_and_column(cell):
    ds = _dataset([("100",), (cell,)], [0, 1], kinds=("time",))
    with pytest.raises(DatasetFormatError,
                       match=f"row 1, column 'c0': '{cell}' is not a finite number"):
        _encode(ds)


def test_time_column_passes_through_as_integer():
    ds = _dataset([("100",), ("101",)], [0, 1], kinds=("time",))
    matrix, _ = _encode(ds)
    assert matrix.tolist() == [[100.0], [101.0]]


def test_desk_analog_encodes_full_width():
    ds = generate_drift_stream(desk_spec("B", n_rows=300, seed=7))
    matrix, encoders = _encode(ds)
    assert matrix.shape == (300, 25)
    assert np.all(np.isfinite(matrix))
    assert len(encoders) == 18  # 17 cat + 1 mvc


def test_ordinal_codes_stable_under_later_permutation():
    base = ["a", "b", "c", "a"]
    enc = _fit(base)
    tail1 = _transform(enc, ["c", "d", "e"])
    tail2 = _transform(enc, ["e", "d", "c"])
    assert tail1[0] == tail2[2] == 3.0  # fitted value keeps its code
    assert tail1[1] == tail1[2] == 0.0  # unseen stays unseen


def test_extend_ordinal_appends_without_renumbering():
    enc = _fit(["a", "b"])
    grown = extend_ordinal(enc, ["b", "c", "d"])
    assert grown == {"a": 1, "b": 2, "c": 3, "d": 4}
    assert enc == {"a": 1, "b": 2}  # original untouched


def test_fit_dataset_encoders_skips_numeric_columns():
    ds = generate_drift_stream(desk_spec("B", n_rows=60, seed=2))
    encoders = fit_dataset_encoders(ds.block(0, len(ds)))
    assert set(encoders) == {
        name for name, kind in ds.schema.columns
        if kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL)
    }


# ---------------------------------------------------------------------------
# reference: the per-cell encoder that transform_rows's column pass replaced


def reference_fit(schema, rows):
    encoders = {}
    for j, (name, kind) in enumerate(schema.columns):
        if kind is FeatureKind.CATEGORICAL or kind is FeatureKind.MULTI_CATEGORICAL:
            codes = {}
            for row in rows:
                if row[j] not in codes:
                    codes[row[j]] = len(codes) + 1
            encoders[name] = codes
    return encoders


def reference_transform_rows(schema, rows, encoders):
    out = np.zeros((len(rows), schema.n_features), dtype=np.float64)
    for j, (name, kind) in enumerate(schema.columns):
        for i, row in enumerate(rows):
            if kind is FeatureKind.NUMERICAL or kind is FeatureKind.TIME:
                if row[j] != "":
                    out[i, j] = float(row[j]) if kind is FeatureKind.NUMERICAL else int(row[j])
            else:
                out[i, j] = float(encoders[name].get(row[j], 0))
    return out


_HAND_ROWS = [
    ("1.5", "a", "x|y", "17"),
    ("", "b", "", "-3"),
    ("-0", "a", "y|y|z", ""),
    ("2e-7", "", "x||y", "0"),
    ("3", "c", "q", "9007199254740993"),  # past 2**53: rounds like float(int)
    ("1e300", "new", "y|new", "5"),
]


def _reference_cases():
    for shape in "ABCDE":
        ds = generate_drift_stream(desk_spec(shape, n_rows=240, n_blocks=3, seed=7))
        yield shape, ds, 80
    hand = _schema(("num", "cat", "mvc", "time"))
    yield "hand", ChronoDataset.from_rows(hand, _HAND_ROWS, [0, 1] * 3), 4


def test_column_pass_matches_reference_bytes():
    # Encoders are fitted on the first block only, so the later rows hold
    # values the fit never saw.
    for case, ds, fit_hi in _reference_cases():
        schema, rows = ds.schema, oracle_rows(ds.text, ds.starts[0], ds.starts[-1], ds.schema)
        encoders = fit_dataset_encoders(ds.block(0, fit_hi))
        reference = reference_fit(schema, rows[:fit_hi])
        got = transform_rows(ds.block(0, len(ds)), encoders)
        want = reference_transform_rows(schema, rows, reference)
        assert got.flags.c_contiguous and got.dtype == np.float64, case
        assert got.shape == want.shape, case
        assert got.tobytes() == want.tobytes(), case


# ---------------------------------------------------------------------------
# oracle: the tuple path that block columns replaced.  A block was parsed
# into row tuples, and the matrix was filled from them a column at a time,
# each column's cells parsed one by one.


def oracle_rows(text, lo, hi, schema):
    """The lines of ``text[lo:hi]`` as tuples of their first
    ``n_features`` cells, as blocks were parsed."""
    lines = str(memoryview(text)[lo:hi], "utf-8").split("\n")
    lines.pop()
    return tuple([tuple(line.split(",")[:schema.n_features]) for line in lines])


def _oracle_int_float(cell):
    return float(int(cell))


def _oracle_parse_cell(parse, name, kind, i, cell):
    try:
        return parse(cell) if cell else 0.0
    except OverflowError:
        return math.inf
    except ValueError:
        raise DatasetFormatError(
            f"row {i}, column {name!r}: cannot parse {cell!r} as "
            f"{'a number' if kind is FeatureKind.NUMERICAL else 'an integer'}"
        ) from None


def _oracle_parse_column(name, kind, cells):
    parse = float if kind is FeatureKind.NUMERICAL else _oracle_int_float
    try:
        values = [parse(c) if c else 0.0 for c in cells]
    except (ValueError, OverflowError):
        values = [_oracle_parse_cell(parse, name, kind, i, c) for i, c in enumerate(cells)]
    column = np.array(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        i = int(bad[0])
        raise DatasetFormatError(f"row {i}, column {name!r}: {cells[i]!r} is not a finite number")
    return column


def oracle_transform_rows(schema, rows, encoders):
    out = np.empty((len(rows), schema.n_features), dtype=np.float64)
    for j, (name, kind) in enumerate(schema.columns):
        cells = [row[j] for row in rows]
        if kind is FeatureKind.NUMERICAL or kind is FeatureKind.TIME:
            out[:, j] = _oracle_parse_column(name, kind, cells)
        else:
            get = encoders[name].get
            out[:, j] = [get(c, 0) for c in cells]
    return out


def _outcome(fn, *args):
    """``fn(*args)``'s matrix as bytes, or its format error's message."""
    try:
        return fn(*args).tobytes()
    except DatasetFormatError as exc:
        return f"error: {exc}"


#: Cells that parse one way or another, or not at all, in each kind of column.
ADVERSARIAL = ["", "nan", "inf", "-inf", "1e400", "-1e400", " 1 ", "\t2", "  ", "1_0", "1__0",
               "\uff11\uff12", "\u0663", "1.5", "1e3", "0x10", "0x1p3", "1" * 400, "-" + "9" * 400,
               "9" * 20, "-0", "+7", "0", "1", "caf\u00e9", "\u00fc|\u00fc", "\U0001f600"]
TEXT = st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), max_size=4)
CELLS = {
    FeatureKind.NUMERICAL: st.one_of(st.floats().map(repr), st.integers(-999, 999).map(str),
                                     st.sampled_from(ADVERSARIAL)),
    FeatureKind.TIME: st.one_of(st.integers(-10**20, 10**20).map(str),
                                st.sampled_from(ADVERSARIAL)),
    FeatureKind.CATEGORICAL: st.one_of(st.sampled_from(["a", "b", "\u00e9"]), TEXT,
                                       st.sampled_from(ADVERSARIAL)),
    FeatureKind.MULTI_CATEGORICAL: st.one_of(st.sampled_from(["a|b", "b", ""]), TEXT),
}


@st.composite
def tables(draw):
    """A schema and a labeled table of cells drawn for its column kinds, each
    column a run of one cell or of cells drawn one by one."""
    kinds = draw(st.lists(st.sampled_from(FeatureKind), min_size=1, max_size=5))
    schema = _schema(tuple(kind.value for kind in kinds))
    n = draw(st.integers(1, 12))
    columns = []
    for kind in kinds:
        if draw(st.booleans()):
            columns.append([draw(CELLS[kind])] * n)
        else:
            columns.append(draw(st.lists(CELLS[kind], min_size=n, max_size=n)))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return ChronoDataset.from_rows(schema, list(zip(*columns)), labels)


def assert_columns_match_the_oracle(ds, n_blocks):
    """Every block of ``ds``, labeled and not, encodes as the tuple path
    did, under encoders fitted on the first block, or fails with its error."""
    ranges = plan_blocks(len(ds), n_blocks) if n_blocks > 1 else ((0, len(ds)),)
    first = oracle_rows(ds.text, ds.starts[0], ds.starts[ranges[0][1]], ds.schema)
    encoders = reference_fit(ds.schema, first)
    assert fit_dataset_encoders(ds.block(*ranges[0])) == encoders
    for lo, hi in ranges:
        rows = oracle_rows(ds.text, ds.starts[lo], ds.starts[hi], ds.schema)
        want = _outcome(oracle_transform_rows, ds.schema, rows, encoders)
        block = ds.block(lo, hi)
        assert block.columns == [list(column) for column in zip(*rows)]
        assert _outcome(transform_rows, block, encoders) == want
        assert _outcome(transform_rows, block.unlabeled(), encoders) == want


@pytest.mark.parametrize("shape", "ABCDE")
def test_block_columns_match_the_tuple_oracle_on_generated_streams(tmp_path, shape):
    ds = generate_drift_stream(desk_spec(shape, n_rows=300, n_blocks=4, seed=11))
    assert_columns_match_the_oracle(ds, 4)
    assert_columns_match_the_oracle(crlf_sourced(ds, tmp_path), 4)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tables(), st.integers(1, 3))
def test_block_columns_match_the_tuple_oracle_on_adversarial_cells(tmp_path_factory, ds,
                                                                   n_blocks):
    n_blocks = min(n_blocks, len(ds))
    assert_columns_match_the_oracle(ds, n_blocks)
    assert_columns_match_the_oracle(crlf_sourced(ds, tmp_path_factory.mktemp("crlf")),
                                    n_blocks)


@pytest.mark.parametrize("kind, cell, message", [
    ("num", "0x10", "cannot parse '0x10' as a number"),
    ("num", "1e400", "'1e400' is not a finite number"),
    ("time", "1.5", "cannot parse '1.5' as an integer"),
    ("time", "1e3", "cannot parse '1e3' as an integer"),
    ("time", "9" * 400, f"'{'9' * 400}' is not a finite number"),
])
def test_a_bad_cell_names_its_row_in_the_block(kind, cell, message):
    rows = [("1",), ("2",), ("3",), (cell,), ("5",)]
    ds = _dataset(rows, [0, 1, 0, 1, 0], kinds=(kind,))
    with pytest.raises(DatasetFormatError) as info:
        transform_rows(ds.block(2, 5), {})
    assert str(info.value) == f"row 1, column 'c0': {message}"
