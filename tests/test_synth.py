from collections import Counter

import numpy as np
import pytest

from driftbench.baseline import BaselineConfig, fit_initial, predict_scores
from driftbench.data import FeatureKind, plan_blocks, save_dataset
from driftbench.encoding import fit_dataset_encoders, transform_rows
from driftbench.metrics import auc
from driftbench.synth import DATASET_SHAPES, DriftGenSpec, desk_spec, generate_drift_stream

SMALL = dict(n_rows=2500, n_cat=3, n_num=4, n_mvc=1, n_time=1, n_blocks=10,
             cat_cardinality=20, power_exponent=1.3)


def test_determinism_bit_identical(tmp_path):
    spec = DriftGenSpec(n_rows=300, n_cat=2, n_num=2, n_mvc=1, n_time=1,
                        n_blocks=5, drift="gradual", drift_magnitude=1.0, seed=9)
    a = generate_drift_stream(spec)
    b = generate_drift_stream(spec)
    assert a.rows == b.rows
    assert np.array_equal(a.labels, b.labels)
    save_dataset(a, tmp_path / "a.csv", tmp_path / "a.schema.csv")
    save_dataset(b, tmp_path / "b.csv", tmp_path / "b.schema.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_different_seeds_differ():
    a = generate_drift_stream(DriftGenSpec(seed=1, **SMALL))
    b = generate_drift_stream(DriftGenSpec(seed=2, **SMALL))
    assert a.rows != b.rows


def test_schema_layout_and_widths():
    ds = generate_drift_stream(DriftGenSpec(n_rows=50, n_cat=2, n_num=3, n_mvc=1,
                                            n_time=2, n_blocks=5, seed=0))
    kinds = ds.schema.kinds
    assert kinds == (FeatureKind.CATEGORICAL,) * 2 + (FeatureKind.NUMERICAL,) * 3 \
        + (FeatureKind.MULTI_CATEGORICAL,) + (FeatureKind.TIME,) * 2
    assert all(len(row) == 8 for row in ds.rows)
    assert set(ds.labels.tolist()) <= {0, 1}


def test_time_columns_monotone_non_decreasing():
    ds = generate_drift_stream(DriftGenSpec(n_rows=800, n_cat=1, n_num=1, n_mvc=0,
                                            n_time=2, n_blocks=4, seed=2))
    for name in ("time_00", "time_01"):
        j = ds.schema.names.index(name)
        values = [int(row[j]) for row in ds.rows]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_power_law_frequency_slope():
    # Log-log least squares over the 20 most frequent values must sit
    # within +-0.3 of the negated exponent.
    spec = DriftGenSpec(n_rows=120_000, n_cat=1, n_num=1, n_mvc=0, n_time=0,
                        n_blocks=10, cat_cardinality=60, power_exponent=1.2, seed=3)
    ds = generate_drift_stream(spec)
    freq = sorted(Counter(row[0] for row in ds.rows).values(), reverse=True)
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
    with pytest.raises(ValueError):
        DriftGenSpec(n_rows=10, n_cat=0, n_num=0, n_mvc=0, n_time=0)


def _linear_scores(ds, fit_rows):
    """Least-squares linear scorer; low-variance reference predictor."""
    X = transform_rows(ds.schema, ds.rows,
                       fit_dataset_encoders(ds.schema, ds.rows[:fit_rows], ds.labels[:fit_rows]))
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
        plan = plan_blocks(len(ds), spec.n_blocks)
        mid = spec.n_blocks // 2
        train_hi = plan.ranges[mid - 2][1]
        X = transform_rows(ds.schema, ds.rows,
                           fit_dataset_encoders(ds.schema, ds.rows[:train_hi], ds.labels[:train_hi]))
        y = np.asarray(ds.labels, dtype=np.float64)
        config = BaselineConfig(initial_trees=30, trees_per_block=8, max_depth=3,
                                learning_rate=0.2, seed=seed)
        ens = fit_initial(X[:train_hi], y[:train_hi], config)
        held_lo, held_hi = plan.ranges[mid - 1]
        pre = auc(y[held_lo:held_hi], predict_scores(ens, X[held_lo:held_hi]))
        post = [
            auc(y[lo:hi], predict_scores(ens, X[lo:hi]))
            for lo, hi in plan.ranges[mid:]
        ]
        drops.append(pre - float(np.mean(post)))
    assert float(np.mean(drops)) >= 0.10
