import numpy as np
import pytest

from driftbench.data import ChronoDataset, DatasetFormatError, FeatureKind, FeatureSchema
from driftbench.encoding import extend_ordinal, fit_dataset_encoders, transform_rows
from driftbench.synth import desk_spec, generate_drift_stream


def _schema(kinds):
    return FeatureSchema(tuple((f"c{i}", FeatureKind(k)) for i, k in enumerate(kinds)), "y")


def _dataset(rows, labels, kinds=("num", "cat")):
    return ChronoDataset.from_rows(_schema(kinds), tuple(rows), np.asarray(labels))


def _fit(values, column="cat"):
    """The codes of a one-column table of ``values``."""
    return fit_dataset_encoders(_schema((column,)), [(v,) for v in values])["c0"]


def _transform(encoder, values, column="cat"):
    return transform_rows(_schema((column,)), [(v,) for v in values], {"c0": encoder})[:, 0]


def _encode(ds):
    encoders = fit_dataset_encoders(ds.schema, ds.rows)
    return transform_rows(ds.schema, ds.rows, encoders), encoders


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
    encoders = fit_dataset_encoders(ds.schema, ds.rows)
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
        yield shape, ds.schema, ds.rows, 80
    yield "hand", _schema(("num", "cat", "mvc", "time")), _HAND_ROWS, 4


def test_column_pass_matches_reference_bytes():
    # Encoders are fitted on the first block only, so the later rows hold
    # values the fit never saw.
    for case, schema, rows, fit_hi in _reference_cases():
        encoders = fit_dataset_encoders(schema, rows[:fit_hi])
        reference = reference_fit(schema, rows[:fit_hi])
        got = transform_rows(schema, rows, encoders)
        want = reference_transform_rows(schema, rows, reference)
        assert got.flags.c_contiguous and got.dtype == np.float64, case
        assert got.shape == want.shape, case
        assert got.tobytes() == want.tobytes(), case
