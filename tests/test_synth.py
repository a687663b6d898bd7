import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench.baseline import BaselineConfig, fit_initial, predict_scores
from driftbench.data import ChronoDataset, DatasetFormatError, FeatureKind, plan_blocks, save_dataset
from driftbench.encoding import fit_dataset_encoders, transform_rows
from driftbench import synth
from driftbench.metrics import auc
from driftbench.synth import (
    DATASET_SHAPES,
    DRIFT_PROFILES,
    DriftGenSpec,
    _rotated,
    build_schema,
    desk_spec,
    generate_drift_stream,
    power_law_probs,
)

from test_data import all_rows

SMALL = dict(n_rows=2500, n_cat=3, n_num=4, n_mvc=1, n_time=1, n_blocks=10,
             cat_cardinality=20, power_exponent=1.3)


def test_determinism_bit_identical(tmp_path):
    spec = DriftGenSpec(n_rows=300, n_cat=2, n_num=2, n_mvc=1, n_time=1,
                        n_blocks=5, drift="gradual", drift_magnitude=1.0, seed=9)
    a = generate_drift_stream(spec)
    b = generate_drift_stream(spec)
    assert all_rows(a) == all_rows(b)
    assert np.array_equal(a.labels, b.labels)
    save_dataset(a, tmp_path / "a.csv", tmp_path / "a.schema.csv")
    save_dataset(b, tmp_path / "b.csv", tmp_path / "b.schema.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_different_seeds_differ():
    a = generate_drift_stream(DriftGenSpec(seed=1, **SMALL))
    b = generate_drift_stream(DriftGenSpec(seed=2, **SMALL))
    assert all_rows(a) != all_rows(b)


def test_schema_layout_and_widths():
    ds = generate_drift_stream(DriftGenSpec(n_rows=50, n_cat=2, n_num=3, n_mvc=1,
                                            n_time=2, n_blocks=5, seed=0))
    kinds = ds.schema.kinds
    assert kinds == (FeatureKind.CATEGORICAL,) * 2 + (FeatureKind.NUMERICAL,) * 3 \
        + (FeatureKind.MULTI_CATEGORICAL,) + (FeatureKind.TIME,) * 2
    assert all(line.count(b",") == 8 for line in ds.text.splitlines())  # and the label
    assert set(ds.labels.tolist()) <= {0, 1}


def test_time_columns_monotone_non_decreasing():
    ds = generate_drift_stream(DriftGenSpec(n_rows=800, n_cat=1, n_num=1, n_mvc=0,
                                            n_time=2, n_blocks=4, seed=2))
    for name in ("time_00", "time_01"):
        j = ds.schema.names.index(name)
        values = [int(cell) for cell in ds.block(0, len(ds)).columns[j]]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_power_law_frequency_slope():
    # Log-log least squares over the 20 most frequent values must sit
    # within +-0.3 of the negated exponent.
    spec = DriftGenSpec(n_rows=120_000, n_cat=1, n_num=1, n_mvc=0, n_time=0,
                        n_blocks=10, cat_cardinality=60, power_exponent=1.2, seed=3)
    ds = generate_drift_stream(spec)
    freq = sorted(Counter(ds.block(0, len(ds)).columns[0]).values(), reverse=True)
    ranks = np.arange(1, 21)
    slope = np.polyfit(np.log(ranks), np.log(np.asarray(freq[:20], float)), 1)[0]
    assert abs(slope - (-1.2)) < 0.3


def test_desk_shapes_match_published_mixes():
    for shape, (n_cat, n_num, n_mvc, n_time, _budget) in DATASET_SHAPES.items():
        spec = desk_spec(shape, n_rows=100)
        assert (spec.n_cat, spec.n_num, spec.n_mvc, spec.n_time) == \
            (n_cat, n_num, n_mvc, n_time)
    assert desk_spec("B", n_rows=100).n_features == 25


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        DriftGenSpec(n_rows=10, n_cat=1, n_num=1, drift="sudden")
    with pytest.raises(ValueError):
        DriftGenSpec(n_rows=10, n_cat=1, n_num=1, drift_magnitude=-1.0)
    with pytest.raises(ValueError):
        DriftGenSpec(n_rows=10, n_cat=1, n_num=1, power_exponent=0.0)
    for field in ("drift_magnitude", "power_exponent"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
                DriftGenSpec(n_rows=10, n_cat=1, n_num=1, **{field: value})
    with pytest.raises(ValueError):
        DriftGenSpec(n_rows=10, n_cat=0, n_num=0, n_mvc=0, n_time=0)
    for kind in ("n_cat", "n_num", "n_mvc", "n_time"):
        counts = {"n_cat": 1, "n_num": 2, "n_mvc": 1, "n_time": 1, kind: -1}
        with pytest.raises(ValueError, match=">= 0"):
            DriftGenSpec(n_rows=10, **counts)
    for field, value in (("n_rows", 10.0), ("n_cat", True), ("drift", 1),
                         ("drift_magnitude", "0.5"), ("seed", None), ("dataset_id", 5)):
        with pytest.raises(TypeError, match=f"^{field} must be"):
            DriftGenSpec(**{"n_rows": 10, "n_cat": 1, "n_num": 1, field: value})
    with pytest.raises(ValueError, match="unknown dataset shape 'Z'"):
        desk_spec("Z", n_rows=10)
    typed = DriftGenSpec(n_rows=np.int64(10), n_cat=1, n_num=1, drift_magnitude=2)
    assert (type(typed.n_rows), type(typed.drift_magnitude)) == (int, float)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        DriftGenSpec(n_rows=10, n_cat=1, n_num=1, seed=-1)
    with pytest.raises(ValueError, match="^drift_magnitude must be a finite number, got an integer"):
        DriftGenSpec(n_rows=10, n_cat=1, n_num=1, drift_magnitude=10**400)


def test_high_cardinality_stream_stays_small():
    # Effects are looked up per row: no (rows x cardinality) table, which
    # at 400 rows and 10 000 categories would take 32 MB each.
    spec = DriftGenSpec(n_rows=400, n_cat=2, n_num=2, n_mvc=1, n_time=1, n_blocks=10,
                        drift="gradual", drift_magnitude=1.0, cat_cardinality=10_000, seed=1)
    tracemalloc.start()
    try:
        generate_drift_stream(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_constant_score_saturates_without_a_warning():
    # One category and no numeric column: the score is the constant
    # c = -1.22, which is not standardized, so nothing overflows (the suite
    # turns a RuntimeWarning into an error).  P(label=1) = 0.025, and
    # none of the 18 draws falls below it.
    ds = generate_drift_stream(DriftGenSpec(n_rows=18, n_cat=0, n_num=0, n_mvc=1, n_time=0,
                                            n_blocks=1, cat_cardinality=1, seed=211))
    assert ds.labels.tolist() == [0] * 18


@pytest.mark.parametrize("seed", [2, 18])
def test_constant_score_labels_follow_its_probability(seed):
    # Two one-category columns and no drift: every row's score is the
    # constant c, the sum of the columns' base effects.  Labels are drawn
    # at 1 / (1 + exp(-3c)), not from a std of rounding noise, which would
    # make these streams all 0 (seed 2) or all 1 (seed 18).
    spec = DriftGenSpec(n_rows=1000, n_cat=2, n_num=0, n_mvc=0, n_time=1, n_blocks=5,
                        cat_cardinality=1, seed=seed)
    rng = np.random.default_rng(seed)
    rng.standard_normal(0)                  # the numeric weights: none
    rng.standard_normal(0)
    effects = [(rng.standard_normal(1), rng.standard_normal(1)) for _ in range(spec.n_cat)]
    c = sum(e_a[0] for e_a, _ in effects)   # no drift: only the base effects count
    p = 1.0 / (1.0 + np.exp(-3.0 * c))
    assert 0.3 < p < 0.7
    rate = generate_drift_stream(spec).labels.mean()
    assert abs(rate - p) < 4 * np.sqrt(p * (1 - p) / spec.n_rows)


@pytest.mark.parametrize("seed", [2, 18])
def test_score_varying_only_by_rounding_is_labeled_as_constant(seed):
    # A drift of 1e-15 rad changes the constant score only in its last
    # bits.  Standardizing that spread would draw every label from rounding
    # noise (all 0 at seed 2, all 1 at seed 18); treated as constant, the
    # stream is labeled exactly as without drift (16 and 38 ones of 50).
    def labels(drift):
        return generate_drift_stream(DriftGenSpec(
            n_rows=50, n_cat=2, n_num=0, n_mvc=0, n_time=1, n_blocks=5, cat_cardinality=1,
            drift=drift, drift_magnitude=1e-15, seed=seed)).labels.tolist()

    assert labels("gradual") == labels("none")
    assert 0 < sum(labels("gradual")) < 50


def _linear_scores(ds, fit_rows):
    """Least-squares linear scorer; low-variance reference predictor."""
    X = transform_rows(ds.block(0, len(ds)),
                       fit_dataset_encoders(ds.block(0, fit_rows)))
    y = np.asarray(ds.labels, dtype=np.float64)
    A = np.hstack([X, np.ones((len(ds), 1))])
    w, *_ = np.linalg.lstsq(A[:fit_rows], y[:fit_rows], rcond=None)
    return A @ w, y


def test_no_drift_halves_are_indistinguishable():
    # A fixed scorer fitted on the first half scores both halves equally
    # well when nothing drifts; |mean delta| < 0.03 over 10 seeds.
    deltas = []
    for seed in range(10):
        ds = generate_drift_stream(DriftGenSpec(drift="none", seed=seed, **SMALL))
        half = len(ds) // 2
        scores, y = _linear_scores(ds, half)
        deltas.append(auc(y[:half], scores[:half]) - auc(y[half:], scores[half:]))
    assert abs(float(np.mean(deltas))) < 0.03


def test_abrupt_drift_degrades_stale_model():
    # An ensemble fitted before the switch loses at least 0.10 mean AUC on
    # post-switch blocks relative to a held-out pre-switch block, averaged
    # over 10 seeds.  (Observed drop with these settings: ~0.58.)
    drops = []
    for seed in range(10):
        spec = DriftGenSpec(drift="abrupt", drift_magnitude=2.5, seed=seed, **SMALL)
        ds = generate_drift_stream(spec)
        ranges = plan_blocks(len(ds), spec.n_blocks)
        mid = spec.n_blocks // 2
        train_hi = ranges[mid - 2][1]
        X = transform_rows(ds.block(0, len(ds)),
                           fit_dataset_encoders(ds.block(0, train_hi)))
        y = np.asarray(ds.labels, dtype=np.float64)
        config = BaselineConfig(initial_trees=30, trees_per_block=8, max_depth=3,
                                learning_rate=0.2, seed=seed)
        ens = fit_initial(X[:train_hi], y[:train_hi], config)
        held_lo, held_hi = ranges[mid - 1]
        pre = auc(y[held_lo:held_hi], predict_scores(ens, X[held_lo:held_hi]))
        post = [
            auc(y[lo:hi], predict_scores(ens, X[lo:hi]))
            for lo, hi in ranges[mid:]
        ]
        drops.append(pre - float(np.mean(post)))
    assert float(np.mean(drops)) >= 0.10


# ---------------------------------------------------------------------------
# the row-by-row generator, kept as the oracle for the chunked one


def _reference_generate(spec):
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    ranges = plan_blocks(n, spec.n_blocks) if spec.n_blocks >= 2 else ()

    block_of_row = np.zeros(n, dtype=np.int64)
    for b, (lo, hi) in enumerate(ranges):
        block_of_row[lo:hi] = b

    if spec.drift == "none" or spec.drift_magnitude == 0.0 or spec.n_blocks < 2:
        t = np.zeros(n)
    elif spec.drift == "gradual":
        t = block_of_row / max(spec.n_blocks - 1, 1)
    else:
        t = (block_of_row >= spec.n_blocks // 2).astype(np.float64)
    angle = t * spec.drift_magnitude

    w_a = rng.standard_normal(spec.n_num)
    w_b = rng.standard_normal(spec.n_num)
    cat_probs = power_law_probs(spec.cat_cardinality, spec.power_exponent)
    cat_eff = [
        (rng.standard_normal(spec.cat_cardinality), rng.standard_normal(spec.cat_cardinality))
        for _ in range(spec.n_cat)
    ]
    mvc_eff = [
        (rng.standard_normal(spec.cat_cardinality), rng.standard_normal(spec.cat_cardinality))
        for _ in range(spec.n_mvc)
    ]

    score = np.zeros(n)

    cat_codes = []
    for j in range(spec.n_cat):
        codes = rng.choice(spec.cat_cardinality, size=n, p=cat_probs)
        cat_codes.append(codes)
        e_a, e_b = cat_eff[j]
        eff = _rotated(e_a, e_b, angle)
        score += eff[np.arange(n), codes]

    x_num = rng.standard_normal((n, spec.n_num))
    if spec.n_num:
        w = _rotated(w_a, w_b, angle)
        score += np.einsum("ij,ij->i", x_num, w)

    mvc_cells = []
    for j in range(spec.n_mvc):
        counts = rng.integers(1, 3 + 1, size=n)
        token_draws = rng.choice(spec.cat_cardinality, size=(n, 3), p=cat_probs)
        e_a, e_b = mvc_eff[j]
        eff = _rotated(e_a, e_b, angle)
        cells = []
        cell_effect = np.zeros(n)
        for i in range(n):
            toks = token_draws[i, : counts[i]]
            seen = []
            for tok in toks.tolist():
                if tok not in seen:
                    seen.append(tok)
            cells.append("|".join(f"v{tok + 1}" for tok in seen))
            cell_effect[i] = eff[i, seen].mean()
        mvc_cells.append(cells)
        score += cell_effect

    time_cols = []
    for _ in range(spec.n_time):
        ticks = np.cumsum(rng.integers(0, 3, size=n))
        time_cols.append(1_600_000_000 + ticks)

    if np.ptp(score) > 1e-12 * np.abs(score).max():
        score = score / score.std()
    p = 1.0 / (1.0 + np.exp(-3.0 * score))
    labels = (rng.random(n) < p).astype(np.int64)

    rows = []
    for i in range(n):
        cells = []
        for j in range(spec.n_cat):
            cells.append(f"v{cat_codes[j][i] + 1}")
        for j in range(spec.n_num):
            cells.append(f"{x_num[i, j]:.6f}")
        for j in range(spec.n_mvc):
            cells.append(mvc_cells[j][i])
        for j in range(spec.n_time):
            cells.append(str(int(time_cols[j][i])))
        rows.append(tuple(cells))

    return build_schema(spec), tuple(rows), labels, \
        f"{spec.dataset_id}(seed={spec.seed},drift={spec.drift})"


def _assert_matches_reference(spec):
    # Bytes are made a chunk of rows at a time: the default chunk, one row,
    # and a chunk that leaves a partial last one all give the oracle's rows,
    # and the very bytes and line starts from_rows makes of them, which a
    # comparison of cells alone would not see a wrong line start in.
    schema, rows, labels, provenance = _reference_generate(spec)
    expected = ChronoDataset.from_rows(schema, rows, labels)
    for chunk_rows in (synth._CHUNK_ROWS, 1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synth, "_CHUNK_ROWS", chunk_rows)
            ds = generate_drift_stream(spec)
        assert ds.schema == schema
        assert all_rows(ds) == rows
        assert ds.text == expected.text
        assert ds.starts.dtype == expected.starts.dtype
        assert np.array_equal(ds.starts, expected.starts)
        assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels)
        assert ds.provenance == provenance


DRIFTS = (("none", 0.0), ("none", 1.5), ("gradual", 0.8), ("gradual", 0.0),
          ("abrupt", 2.5), ("abrupt", 0.0))


@pytest.mark.parametrize("shape", sorted(DATASET_SHAPES))
def test_column_generator_matches_reference(shape):
    # Every drift setting, seed and block count on one challenge shape.
    for drift, magnitude in DRIFTS:
        for seed in (1, 7, 12345):
            for n_blocks in (1, 2, 3, 10):
                _assert_matches_reference(desk_spec(
                    shape, n_rows=41, n_blocks=n_blocks, drift=drift,
                    drift_magnitude=magnitude, seed=seed))


@pytest.mark.parametrize("spec", [
    DriftGenSpec(n_rows=50, n_cat=2, n_num=1, n_mvc=2, n_time=1, n_blocks=5,
                 drift="gradual", drift_magnitude=1.0, cat_cardinality=1, seed=3),
    DriftGenSpec(n_rows=30, n_cat=0, n_num=3, n_mvc=0, n_time=0, n_blocks=3,
                 drift="abrupt", drift_magnitude=2.0, seed=4),
    DriftGenSpec(n_rows=30, n_cat=2, n_num=0, n_mvc=0, n_time=0, n_blocks=2,
                 drift="gradual", drift_magnitude=0.5, seed=5),
    DriftGenSpec(n_rows=30, n_cat=0, n_num=0, n_mvc=3, n_time=0, n_blocks=10,
                 drift="abrupt", drift_magnitude=1.0, cat_cardinality=4, seed=6),
    DriftGenSpec(n_rows=20, n_cat=0, n_num=0, n_mvc=0, n_time=2, n_blocks=4,
                 drift="gradual", drift_magnitude=1.0, seed=7),
    DriftGenSpec(n_rows=1, n_cat=1, n_num=1, n_mvc=1, n_time=1, n_blocks=1, seed=8),
    DriftGenSpec(n_rows=10, n_cat=1, n_num=1, n_mvc=1, n_time=1, n_blocks=10,
                 drift="gradual", drift_magnitude=3.0, power_exponent=0.2, seed=9),
    DriftGenSpec(n_rows=50, n_cat=2, n_num=0, n_mvc=0, n_time=1, n_blocks=5,
                 cat_cardinality=1, seed=18),
    # Two whole default chunks and a partial third.
    DriftGenSpec(n_rows=2 * synth._CHUNK_ROWS + 89, n_cat=2, n_num=3, n_mvc=2, n_time=2,
                 n_blocks=7, drift="gradual", drift_magnitude=1.2, cat_cardinality=12, seed=10),
], ids=["cardinality-1", "num-only", "cat-only", "mvc-only", "time-only",
        "one-row", "one-row-blocks", "constant-score", "longer-than-a-chunk"])
def test_column_generator_matches_reference_edge_specs(spec):
    _assert_matches_reference(spec)


@st.composite
def small_specs(draw):
    counts = draw(st.tuples(*[st.integers(0, 3)] * 4).filter(lambda c: sum(c) >= 1))
    n_rows = draw(st.integers(1, 60))
    return DriftGenSpec(
        n_rows=n_rows, n_cat=counts[0], n_num=counts[1], n_mvc=counts[2], n_time=counts[3],
        n_blocks=draw(st.integers(1, n_rows)),
        drift=draw(st.sampled_from(DRIFT_PROFILES)),
        drift_magnitude=draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
        cat_cardinality=draw(st.integers(1, 40)),
        power_exponent=draw(st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                                      allow_infinity=False)),
        seed=draw(st.integers(min_value=0, max_value=2**128)),
    )


# The oracle's logistic overflows, to the right 0 or 1, on a score whose
# spread is small but above rounding level (a drift of 1e-10 rad does it):
# scaled by 1/std without centering, it standardizes to huge values.
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(small_specs())
def test_column_generator_matches_reference_on_random_specs(spec):
    _assert_matches_reference(spec)


# ---------------------------------------------------------------------------
# the byte writers


def _cell_strings(fields):
    """Each byte field of ``fields`` (last axis) as its cell's text, filler dropped."""
    return [bytes(field[field != 0]).decode("ascii")
            for field in fields.reshape(-1, fields.shape[-1])]


def test_numeric_cells_equal_python_fixed_formatting():
    # Exact ties on the 1e-6 grid, negative zero and a negative value that
    # rounds to it, carries into the integer digits, the fast path's limit
    # and beyond, then 10**5 standard-normal draws.
    limit = 2.0 ** 30 / 1e6
    near_ties = [2.5e-6, -2.5e-6, 3.5e-6, 1.25e-5]
    edges = near_ties + [
        1 / 128, -1 / 128, 3 / 128, -3 / 128, 0.0, -0.0, 1e-9, -1e-9, 5e-7, -5e-7,
        0.9999996, -0.9999996, 9.9999996, 99.9999996, 999.9999996, 0.0000004,
        np.nextafter(limit, 0), limit, -limit, 1e4, -1e4, 1e12, -1e12, 123.456789]
    values = np.concatenate([edges, np.random.default_rng(5).standard_normal(10**5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fields = synth._fixed6_cells(values.reshape(-1, 4))   # as a chunk of rows
    assert fields.shape[:2] == (values.size // 4, 4) and fields.dtype == np.uint8
    assert _cell_strings(fields) == ["%.6f" % v for v in values.tolist()]
    assert _cell_strings(synth._fixed6_cells(np.array([-0.0, -1e-9]))) == ["-0.000000"] * 2
    assert _cell_strings(synth._fixed6_cells(np.array([0.9999996, 9.9999996]))) == \
        ["1.000000", "10.000000"]
    # The fallback ran: rint of the product rounds each near tie the wrong
    # way (2.5e-6 * 1e6 rounds to the tie 2.5, and rint makes it 2, where
    # the double just above 2.5e-6 is "0.000003"), and 1e4 and 1e12 have
    # more integer digits than the fast path writes.
    for v in near_ties:
        assert "%.6f" % (np.rint(abs(v) * 1e6) / 1e6) != "%.6f" % abs(v)
    assert _cell_strings(synth._fixed6_cells(np.array([1e4, -1e12]))) == \
        ["10000.000000", "-1000000000000.000000"]


def test_integer_cells_equal_str():
    values = np.array([[0, 1, 9, 10], [99, 100, 12345, 1_600_000_000],
                       [10**17, 10**18 - 1, 7, 2**62]], dtype=np.int64)
    assert _cell_strings(synth._int_cells(values)) == [str(v) for v in values.ravel().tolist()]
    assert synth._int_cells(np.zeros((3, 0), dtype=np.int64)).shape[:2] == (3, 0)


@pytest.mark.parametrize("name", ["v,2", "v\n2", "v\u00e92"],
                         ids=["comma", "line-break", "non-ASCII"])
@pytest.mark.parametrize("chunk_rows", [synth._CHUNK_ROWS, 1, 2])
def test_synthesis_refuses_a_line_its_bytes_break(monkeypatch, name, chunk_rows):
    # The per-chunk check names the first row whose line is not the
    # schema's commas and one newline in ASCII.  A broken name for the
    # second category stands in for a broken byte table; seed 3 first
    # draws that category at row 2, which starts the second 2-row chunk.
    spec = DriftGenSpec(n_rows=600, n_cat=1, n_num=1, n_mvc=0, n_time=1, n_blocks=2,
                        cat_cardinality=2, seed=3)
    assert generate_drift_stream(spec).block(0, 3).columns[0] == ["v1", "v1", "v2"]
    names = [b"v1", name.encode(), b"|v1", b"|" + name.encode(), b""]
    monkeypatch.setattr(synth, "_name_table",
                        lambda cardinality: np.array(names, dtype="S5").view(np.uint8).reshape(5, 5))
    monkeypatch.setattr(synth, "_CHUNK_ROWS", chunk_rows)
    with pytest.raises(DatasetFormatError, match=r"^row 2 of the generated stream"):
        generate_drift_stream(spec)
