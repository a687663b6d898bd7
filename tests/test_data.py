import numpy as np
import pytest

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
    write_schema,
)
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
    data, schema = write_pair(
        tmp_path,
        "color,y,x\nred,0,1.5\nblue,1,2.0\n",
        SCHEMA_2COL,
    )
    ds = load_dataset(data, schema)
    assert ds.rows[0] == ("1.5", "red")


def test_one_feature_file_loads_as_one_tuples(tmp_path):
    data, schema = write_pair(tmp_path, "y,color\n0,red\n1,\n", "color,cat\ny,label\n")
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


@pytest.mark.parametrize("header, column", [("x,color,x,y", "x"), ("x,color,y,y", "y")])
def test_repeated_header_column_names_file_and_column(tmp_path, header, column):
    data, schema = write_pair(tmp_path, f"{header}\n1.0,red,0,1\n", SCHEMA_2COL)
    with pytest.raises(DatasetFormatError) as info:
        load_dataset(data, schema)
    assert str(info.value) == f"{data}: header repeats column {column!r}"


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
        ChronoDataset(schema, (("1.0",), ("2.0",)), np.array([0]))


# ---------------------------------------------------------------------------
# block plans


def test_split_even():
    plan = plan_blocks(100, 10)
    assert plan.ranges == tuple((i * 10, (i + 1) * 10) for i in range(10))


def brute_force_sizes(n_rows, n_blocks):
    # Independent statement of the remainder rule: earliest blocks absorb
    # the extra rows, everything else stays at the base size.
    sizes = [n_rows // n_blocks] * n_blocks
    for i in range(n_rows % n_blocks):
        sizes[i] += 1
    return sizes


def test_split_remainder_rule():
    plan = plan_blocks(103, 10)
    sizes = [hi - lo for lo, hi in plan.ranges]
    assert sizes == [11, 11, 11, 10, 10, 10, 10, 10, 10, 10]
    assert sizes == brute_force_sizes(103, 10)
    covered = [i for lo, hi in plan.ranges for i in range(lo, hi)]
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
    plan = plan_blocks(len(load_dataset(data, schema)), 5)
    assert plan.n_blocks == 5
    assert plan.n_rows == 10


def test_block_plan_invariants_hold_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_rows = int(rng.integers(2, 500))
        n_blocks = int(rng.integers(2, n_rows + 1))
        plan = plan_blocks(n_rows, n_blocks)
        sizes = [hi - lo for lo, hi in plan.ranges]
        assert sizes == brute_force_sizes(n_rows, n_blocks)
        assert max(sizes) - min(sizes) <= 1
        # contiguous ascending cover of [0, n_rows)
        assert plan.ranges[0][0] == 0
        assert plan.ranges[-1][1] == n_rows
        for (_, hi), (lo, _) in zip(plan.ranges, plan.ranges[1:]):
            assert hi == lo
