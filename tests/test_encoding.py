import numpy as np
import pytest

from driftbench.data import ChronoDataset, DatasetFormatError, FeatureKind, FeatureSchema
from driftbench.encoding import (
    EncoderKind,
    EncodingError,
    encode_dataset,
    extend_ordinal,
    fit_dataset_encoders,
    fit_encoder,
    transform_column,
    transform_mvc_column,
)
from driftbench.synth import desk_spec, generate_drift_stream


def test_ordinal_first_appearance_codes():
    enc = fit_encoder(EncoderKind.ORDINAL, ["a", "b", "a", "c"])
    assert enc.mapping == {"a": 1, "b": 2, "c": 3}


def test_ordinal_unseen_maps_to_zero():
    enc = fit_encoder(EncoderKind.ORDINAL, ["a", "b", "a", "c"])
    assert transform_column(enc, ["c", "z"]).tolist() == [3.0, 0.0]


def test_count_fit_and_transform():
    enc = fit_encoder(EncoderKind.COUNT, ["a", "b", "a", "c"])
    assert enc.mapping == {"a": 2, "b": 1, "c": 1}
    assert transform_column(enc, ["a", "a"]).tolist() == [2.0, 2.0]
    assert transform_column(enc, ["nope"]).tolist() == [0.0]


def test_target_mean_unsmoothed():
    enc = fit_encoder(EncoderKind.TARGET_MEAN, ["a", "a", "b"], [1, 0, 1], smoothing=0)
    assert enc.prior == pytest.approx(2 / 3)
    out = transform_column(enc, ["a", "b"])
    assert out.tolist() == [0.5, 1.0]


def test_target_mean_unseen_gets_prior():
    enc = fit_encoder(EncoderKind.TARGET_MEAN, ["a"] * 3, [1, 1, 0], smoothing=0)
    out = transform_column(enc, ["a", "q"])
    assert out[0] == pytest.approx(2 / 3)
    assert out[1] == pytest.approx(2 / 3)  # prior


def test_target_mean_smoothing_formula():
    # (sum_v + m * prior) / (count_v + m), checked by direct arithmetic
    values = ["a", "a", "a", "b"]
    labels = [1, 1, 0, 1]
    m = 10.0
    prior = 0.75
    enc = fit_encoder(EncoderKind.TARGET_MEAN, values, labels, smoothing=m)
    out = transform_column(enc, ["a", "b"])
    assert out[0] == pytest.approx((2 + m * prior) / (3 + m))
    assert out[1] == pytest.approx((1 + m * prior) / (1 + m))


def test_target_mean_requires_labels():
    with pytest.raises(EncodingError):
        fit_encoder(EncoderKind.TARGET_MEAN, ["a", "b"])


def test_target_mean_bounds():
    # Each encoded value is a convex mix of the category mean and the
    # prior, so it must land between them (and inside [0, 1]).
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        values = [f"v{rng.integers(0, 6)}" for _ in range(n)]
        labels = rng.integers(0, 2, size=n)
        enc = fit_encoder(EncoderKind.TARGET_MEAN, values, labels,
                          smoothing=float(rng.uniform(0, 20)))
        out = transform_column(enc, values + ["unseen"])
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        for value, (label_sum, count) in enc.mapping.items():
            category_mean = label_sum / count
            encoded = enc.encode_value(value)
            lo = min(category_mean, enc.prior) - 1e-12
            hi = max(category_mean, enc.prior) + 1e-12
            assert lo <= encoded <= hi


def test_mvc_count_mean_of_token_counts():
    cells = ["a|b", "a"]
    enc = fit_encoder(EncoderKind.COUNT, ["a", "b", "a"])  # tokens of both rows
    out = transform_mvc_column(enc, cells)
    assert out.tolist() == [1.5, 2.0]


def test_mvc_empty_cell_is_zero():
    enc = fit_encoder(EncoderKind.COUNT, ["a"])
    assert transform_mvc_column(enc, [""]).tolist() == [0.0]
    tgt = fit_encoder(EncoderKind.TARGET_MEAN, ["a"], [1], smoothing=0)
    assert transform_mvc_column(tgt, [""]).tolist() == [0.0]


def test_mvc_ordinal_codes_whole_cell():
    enc = fit_encoder(EncoderKind.ORDINAL, ["a|b", "a", "a|b"])
    assert transform_mvc_column(enc, ["a|b", "b|a"]).tolist() == [1.0, 0.0]


def _dataset(rows, labels, kinds=("num", "cat")):
    schema = FeatureSchema(
        tuple((f"c{i}", FeatureKind(k)) for i, k in enumerate(kinds)), "y"
    )
    return ChronoDataset(schema, tuple(rows), np.asarray(labels))


def test_numeric_column_parses():
    ds = _dataset([("1.5",), ("2.0",)], [0, 1], kinds=("num",))
    matrix, _ = encode_dataset(ds)
    assert matrix.tolist() == [[1.5], [2.0]]


def test_missing_numeric_is_zero():
    ds = _dataset([("",), ("2.0",)], [0, 1], kinds=("num",))
    matrix, _ = encode_dataset(ds)
    assert matrix.tolist() == [[0.0], [2.0]]


def test_bad_numeric_names_row_and_column():
    ds = _dataset([("1.0",), ("oops",)], [0, 1], kinds=("num",))
    with pytest.raises(DatasetFormatError, match="row 1.*c0"):
        encode_dataset(ds)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e309"])
def test_non_finite_numeric_names_row_and_column(cell):
    ds = _dataset([("1.0",), (cell,)], [0, 1], kinds=("num",))
    with pytest.raises(DatasetFormatError, match=f"row 1, column 'c0': '{cell}'"):
        encode_dataset(ds)


def test_time_column_passes_through_as_integer():
    ds = _dataset([("100",), ("101",)], [0, 1], kinds=("time",))
    matrix, _ = encode_dataset(ds)
    assert matrix.tolist() == [[100.0], [101.0]]


def test_desk_analog_encodes_full_width():
    ds = generate_drift_stream(desk_spec("B", n_rows=300, seed=7))
    matrix, encoders = encode_dataset(ds, EncoderKind.COUNT)
    assert matrix.shape == (300, 25)
    assert np.all(np.isfinite(matrix))
    assert len(encoders) == 18  # 17 cat + 1 mvc


def test_length_preserved_for_every_kind():
    ds = generate_drift_stream(desk_spec("B", n_rows=120, seed=1))
    for kind in EncoderKind:
        matrix, _ = encode_dataset(ds, kind)
        assert matrix.shape[0] == 120


def test_fit_range_blocks_label_leakage():
    rows_a = [("a",), ("b",), ("a",), ("zzz",)]
    rows_b = [("a",), ("b",), ("a",), ("qqq",)]  # differs only past the fit range
    for kind in EncoderKind:
        enc_a = encode_dataset(_dataset(rows_a, [0, 1, 1, 0], kinds=("cat",)),
                               kind, fit_rows=(0, 3))[1]
        enc_b = encode_dataset(_dataset(rows_b, [0, 1, 1, 1], kinds=("cat",)),
                               kind, fit_rows=(0, 3))[1]
        assert enc_a["c0"].mapping == enc_b["c0"].mapping


def test_ordinal_codes_stable_under_later_permutation():
    base = ["a", "b", "c", "a"]
    enc = fit_encoder(EncoderKind.ORDINAL, base)
    tail1 = transform_column(enc, ["c", "d", "e"])
    tail2 = transform_column(enc, ["e", "d", "c"])
    assert tail1[0] == tail2[2] == 3.0  # fitted value keeps its code
    assert tail1[1] == tail1[2] == 0.0  # unseen stays unseen


def test_extend_ordinal_appends_without_renumbering():
    enc = fit_encoder(EncoderKind.ORDINAL, ["a", "b"])
    grown = extend_ordinal(enc, ["b", "c", "d"])
    assert grown.mapping == {"a": 1, "b": 2, "c": 3, "d": 4}
    assert enc.mapping == {"a": 1, "b": 2}  # original untouched
    with pytest.raises(EncodingError):
        extend_ordinal(fit_encoder(EncoderKind.COUNT, ["a"]), ["b"])


def test_fit_dataset_encoders_skips_numeric_columns():
    ds = generate_drift_stream(desk_spec("B", n_rows=60, seed=2))
    encoders = fit_dataset_encoders(ds.schema, ds.rows, ds.labels,
                                    cat_kind=EncoderKind.TARGET_MEAN)
    assert set(encoders) == {
        name for name, kind in ds.schema.columns
        if kind in (FeatureKind.CATEGORICAL, FeatureKind.MULTI_CATEGORICAL)
    }


def test_bad_fit_range_rejected():
    ds = _dataset([("a",), ("b",)], [0, 1], kinds=("cat",))
    with pytest.raises(EncodingError):
        encode_dataset(ds, fit_rows=(0, 5))
