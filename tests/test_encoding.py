from dataclasses import dataclass

import numpy as np
import pytest

from driftbench.data import (
    MVC_SEPARATOR,
    ChronoDataset,
    DatasetFormatError,
    FeatureKind,
    FeatureSchema,
)
from driftbench.encoding import (
    EncoderKind,
    EncodingError,
    extend_ordinal,
    fit_dataset_encoders,
    transform_rows,
)
from driftbench.synth import desk_spec, generate_drift_stream


def _schema(kinds):
    return FeatureSchema(tuple((f"c{i}", FeatureKind(k)) for i, k in enumerate(kinds)), "y")


def _dataset(rows, labels, kinds=("num", "cat")):
    return ChronoDataset(_schema(kinds), tuple(rows), np.asarray(labels))


def _fit(kind, values, labels=None, smoothing=10.0):
    """The fitted encoder of a one-column categorical table."""
    encoders = fit_dataset_encoders(_schema(("cat",)), [(v,) for v in values], labels,
                                    cat_kind=kind, smoothing=smoothing)
    return encoders["c0"]


def _transform(encoder, values, column="cat"):
    return transform_rows(_schema((column,)), [(v,) for v in values], {"c0": encoder})[:, 0]


def _encode(ds, kind=EncoderKind.ORDINAL):
    encoders = fit_dataset_encoders(ds.schema, ds.rows, ds.labels, cat_kind=kind)
    return transform_rows(ds.schema, ds.rows, encoders), encoders


def test_ordinal_first_appearance_codes():
    enc = _fit(EncoderKind.ORDINAL, ["a", "b", "a", "c"])
    assert enc.mapping == {"a": 1, "b": 2, "c": 3}


def test_ordinal_unseen_maps_to_zero():
    enc = _fit(EncoderKind.ORDINAL, ["a", "b", "a", "c"])
    assert _transform(enc, ["c", "z"]).tolist() == [3.0, 0.0]


def test_count_fit_and_transform():
    enc = _fit(EncoderKind.COUNT, ["a", "b", "a", "c"])
    assert enc.mapping == {"a": 2, "b": 1, "c": 1}
    assert _transform(enc, ["a", "a"]).tolist() == [2.0, 2.0]
    assert _transform(enc, ["nope"]).tolist() == [0.0]


def test_target_mean_unsmoothed():
    enc = _fit(EncoderKind.TARGET_MEAN, ["a", "a", "b"], [1, 0, 1], smoothing=0)
    assert enc.unseen == pytest.approx(2 / 3)
    out = _transform(enc, ["a", "b"])
    assert out.tolist() == [0.5, 1.0]


def test_target_mean_unseen_gets_prior():
    enc = _fit(EncoderKind.TARGET_MEAN, ["a"] * 3, [1, 1, 0], smoothing=0)
    out = _transform(enc, ["a", "q"])
    assert out[0] == pytest.approx(2 / 3)
    assert out[1] == pytest.approx(2 / 3)  # prior


def test_target_mean_smoothing_formula():
    # (sum_v + m * prior) / (count_v + m), checked by direct arithmetic
    values = ["a", "a", "a", "b"]
    labels = [1, 1, 0, 1]
    m = 10.0
    prior = 0.75
    enc = _fit(EncoderKind.TARGET_MEAN, values, labels, smoothing=m)
    out = _transform(enc, ["a", "b"])
    assert out[0] == pytest.approx((2 + m * prior) / (3 + m))
    assert out[1] == pytest.approx((1 + m * prior) / (1 + m))


def test_target_mean_requires_labels():
    with pytest.raises(EncodingError):
        _fit(EncoderKind.TARGET_MEAN, ["a", "b"])
    with pytest.raises(EncodingError):
        _fit(EncoderKind.TARGET_MEAN, ["a", "b"], [1, 0, 1])


def test_target_mean_bounds():
    # Each encoded value is a convex mix of the category mean and the
    # prior, so it must land between them (and inside [0, 1]).
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        values = [f"v{rng.integers(0, 6)}" for _ in range(n)]
        labels = rng.integers(0, 2, size=n)
        enc = _fit(EncoderKind.TARGET_MEAN, values, labels,
                   smoothing=float(rng.uniform(0, 20)))
        out = _transform(enc, values + ["unseen"])
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        for value, encoded in enc.mapping.items():
            category_mean = float(np.mean([y for v, y in zip(values, labels) if v == value]))
            lo = min(category_mean, enc.unseen) - 1e-12
            hi = max(category_mean, enc.unseen) + 1e-12
            assert lo <= encoded <= hi


def _fit_mvc(kind, cells, labels=None, smoothing=10.0):
    encoders = fit_dataset_encoders(_schema(("mvc",)), [(c,) for c in cells], labels,
                                    mvc_kind=kind, smoothing=smoothing)
    return encoders["c0"]


def test_mvc_count_mean_of_token_counts():
    cells = ["a|b", "a"]
    enc = _fit_mvc(EncoderKind.COUNT, cells)  # tokens of both rows
    out = _transform(enc, cells, column="mvc")
    assert out.tolist() == [1.5, 2.0]


def test_mvc_empty_cell_is_zero():
    enc = _fit_mvc(EncoderKind.COUNT, ["a"])
    assert _transform(enc, [""], column="mvc").tolist() == [0.0]
    tgt = _fit_mvc(EncoderKind.TARGET_MEAN, ["a"], [1], smoothing=0)
    assert _transform(tgt, [""], column="mvc").tolist() == [0.0]


def test_mvc_ordinal_codes_whole_cell():
    enc = _fit_mvc(EncoderKind.ORDINAL, ["a|b", "a", "a|b"])
    assert _transform(enc, ["a|b", "b|a"], column="mvc").tolist() == [1.0, 0.0]


@pytest.mark.parametrize("labels", [[1], [1, 0, 1]])
def test_mvc_target_mean_rejects_misaligned_labels(labels):
    with pytest.raises(EncodingError, match=f"2 rows but {len(labels)} labels"):
        _fit_mvc(EncoderKind.TARGET_MEAN, ["a|b", "c"], labels)


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
    matrix, encoders = _encode(ds, EncoderKind.COUNT)
    assert matrix.shape == (300, 25)
    assert np.all(np.isfinite(matrix))
    assert len(encoders) == 18  # 17 cat + 1 mvc


def test_length_preserved_for_every_kind():
    ds = generate_drift_stream(desk_spec("B", n_rows=120, seed=1))
    for kind in EncoderKind:
        matrix, _ = _encode(ds, kind)
        assert matrix.shape[0] == 120


def test_fit_range_blocks_label_leakage():
    rows_a = [("a",), ("b",), ("a",), ("zzz",)]
    rows_b = [("a",), ("b",), ("a",), ("qqq",)]  # differs only past the fit range
    labels_a, labels_b = [0, 1, 1, 0], [0, 1, 1, 1]
    schema = _schema(("cat",))
    for kind in EncoderKind:
        enc_a = fit_dataset_encoders(schema, rows_a[:3], labels_a[:3], kind)
        enc_b = fit_dataset_encoders(schema, rows_b[:3], labels_b[:3], kind)
        assert enc_a["c0"].mapping == enc_b["c0"].mapping


def test_ordinal_codes_stable_under_later_permutation():
    base = ["a", "b", "c", "a"]
    enc = _fit(EncoderKind.ORDINAL, base)
    tail1 = _transform(enc, ["c", "d", "e"])
    tail2 = _transform(enc, ["e", "d", "c"])
    assert tail1[0] == tail2[2] == 3.0  # fitted value keeps its code
    assert tail1[1] == tail1[2] == 0.0  # unseen stays unseen


def test_extend_ordinal_appends_without_renumbering():
    enc = _fit(EncoderKind.ORDINAL, ["a", "b"])
    grown = extend_ordinal(enc, ["b", "c", "d"])
    assert grown.mapping == {"a": 1, "b": 2, "c": 3, "d": 4}
    assert enc.mapping == {"a": 1, "b": 2}  # original untouched
    with pytest.raises(EncodingError):
        extend_ordinal(_fit(EncoderKind.COUNT, ["a"]), ["b"])


def test_fit_dataset_encoders_skips_numeric_columns():
    ds = generate_drift_stream(desk_spec("B", n_rows=60, seed=2))
    encoders = fit_dataset_encoders(ds.schema, ds.rows, ds.labels,
                                    cat_kind=EncoderKind.TARGET_MEAN)
    assert set(encoders) == {
        name for name, kind in ds.schema.columns
        if kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL)
    }


# ---------------------------------------------------------------------------
# reference: the per-cell encoder that transform_rows's column pass replaced


@dataclass(frozen=True)
class ReferenceEncoder:
    kind: EncoderKind
    mapping: dict
    prior: float = 0.0
    smoothing: float = 0.0

    def encode_value(self, value):
        if self.kind is EncoderKind.ORDINAL or self.kind is EncoderKind.COUNT:
            return float(self.mapping.get(value, 0))
        stats = self.mapping.get(value)
        if stats is None:
            return self.prior
        label_sum, count = stats
        return (label_sum + self.smoothing * self.prior) / (count + self.smoothing)


def reference_fit_encoder(kind, values, labels=None, smoothing=10.0):
    if kind is EncoderKind.ORDINAL:
        codes = {}
        for v in values:
            if v not in codes:
                codes[v] = len(codes) + 1
        return ReferenceEncoder(kind, codes)
    if kind is EncoderKind.COUNT:
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return ReferenceEncoder(kind, counts)
    labels = np.asarray(labels, dtype=np.float64)
    stats = {}
    for v, y in zip(values, labels):
        s, c = stats.get(v, (0.0, 0))
        stats[v] = (s + float(y), c + 1)
    prior = float(labels.mean()) if len(labels) else 0.0
    return ReferenceEncoder(kind, stats, prior=prior, smoothing=float(smoothing))


def reference_mvc_fit_tokens(cells, labels):
    tokens, token_labels = [], []
    for i, cell in enumerate(cells):
        if not cell:
            continue
        for t in cell.split(MVC_SEPARATOR):
            tokens.append(t)
            token_labels.append(float(labels[i]))
    return tokens, token_labels


def reference_fit(schema, rows, labels, cat_kind, mvc_kind, smoothing=10.0):
    mvc_kind = cat_kind if mvc_kind is None else mvc_kind
    encoders = {}
    for j, (name, kind) in enumerate(schema.columns):
        column = [row[j] for row in rows]
        if kind is FeatureKind.CATEGORICAL:
            encoders[name] = reference_fit_encoder(cat_kind, column, labels, smoothing)
        elif kind is FeatureKind.MULTI_CATEGORICAL:
            if mvc_kind is EncoderKind.ORDINAL:
                encoders[name] = reference_fit_encoder(EncoderKind.ORDINAL, column)
            else:
                tokens, token_labels = reference_mvc_fit_tokens(column, labels)
                encoders[name] = reference_fit_encoder(mvc_kind, tokens, token_labels, smoothing)
    return encoders


def reference_transform_column(encoder, values):
    return np.array([encoder.encode_value(v) for v in values], dtype=np.float64)


def reference_transform_mvc_column(encoder, cells):
    if encoder.kind is EncoderKind.ORDINAL:
        return reference_transform_column(encoder, cells)
    out = np.zeros(len(cells), dtype=np.float64)
    for i, cell in enumerate(cells):
        if not cell:
            continue
        tokens = cell.split(MVC_SEPARATOR)
        out[i] = sum(encoder.encode_value(t) for t in tokens) / len(tokens)
    return out


def reference_transform_rows(schema, rows, encoders):
    out = np.zeros((len(rows), schema.n_features), dtype=np.float64)
    for j, (name, kind) in enumerate(schema.columns):
        if kind is FeatureKind.NUMERICAL or kind is FeatureKind.TIME:
            for i, row in enumerate(rows):
                if row[j] != "":
                    out[i, j] = float(row[j]) if kind is FeatureKind.NUMERICAL else int(row[j])
        elif kind is FeatureKind.CATEGORICAL:
            out[:, j] = reference_transform_column(encoders[name], [row[j] for row in rows])
        else:
            out[:, j] = reference_transform_mvc_column(encoders[name], [row[j] for row in rows])
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
        yield shape, ds.schema, ds.rows, ds.labels, 80
    yield "hand", _schema(("num", "cat", "mvc", "time")), _HAND_ROWS, [1, 0, 0, 1, 1, 0], 4


@pytest.mark.parametrize("cat_kind, mvc_kind", [
    (EncoderKind.ORDINAL, None),
    (EncoderKind.COUNT, None),
    (EncoderKind.TARGET_MEAN, None),
    (EncoderKind.ORDINAL, EncoderKind.TARGET_MEAN),
    (EncoderKind.COUNT, EncoderKind.ORDINAL),
    (EncoderKind.TARGET_MEAN, EncoderKind.COUNT),
])
def test_column_pass_matches_reference_bytes(cat_kind, mvc_kind):
    # Encoders are fitted on the first block only, so the later rows hold
    # values the fit never saw.
    for case, schema, rows, labels, fit_hi in _reference_cases():
        encoders = fit_dataset_encoders(schema, rows[:fit_hi], labels[:fit_hi],
                                        cat_kind=cat_kind, mvc_kind=mvc_kind)
        reference = reference_fit(schema, rows[:fit_hi], labels[:fit_hi], cat_kind, mvc_kind)
        got = transform_rows(schema, rows, encoders)
        want = reference_transform_rows(schema, rows, reference)
        assert got.flags.c_contiguous and got.dtype == np.float64, case
        assert got.shape == want.shape, case
        assert got.tobytes() == want.tobytes(), case
