"""Synthesize drifting tabular streams and inspect their structure.

Walks through the generator: feature mixes copied from the public challenge
streams, power-law categorical frequencies, chronological block plans, and
the three drift profiles.
"""

from collections import Counter

import numpy as np

from driftbench.data import plan_blocks
from driftbench.synth import DATASET_SHAPES, DriftGenSpec, desk_spec, generate_drift_stream

# Desk-scale analog of public stream "B": 17 categorical + 7 numeric + 1
# multi-valued feature.  The real thing had ~1.9M rows; 2000 keep the demo
# instant while preserving the shape.
spec = desk_spec("B", n_rows=2000, n_blocks=10, seed=7)
ds = generate_drift_stream(spec)
print(f"stream {ds.provenance}: {len(ds)} rows x {ds.schema.n_features} features,"
      f" positives {np.mean(ds.labels):.2%}")
# A stream is one block holding its data file's bytes; a cut of it is a
# run of its lines, and its columns are cut from one split of their text.
print(f"held as its data file: {len(ds.text)} bytes")
first = ds.block(0, 1)
print("first row:", tuple(column[0] for column in first.columns[:6]), "...")

print("\nblock plan (10 blocks, earliest blocks absorb any remainder):")
print("  ", plan_blocks(len(ds), 10))

print("\navailable desk shapes (cat, num, mvc, time, budget seconds):")
for name, shape in DATASET_SHAPES.items():
    print(f"   {name}: {shape}")

# Power-law categorical frequencies: the most frequent value dominates,
# the tail is long - the signature of id-like columns.
cat0 = Counter(ds.columns[0])
top = cat0.most_common(5)
print("\nmost frequent values of cat_00:", top)

# Drift profiles.  The latent labeling parameters rotate toward an
# orthogonal direction: per block for "gradual", at the midpoint block for
# "abrupt".  Magnitude is the rotation angle in radians.
for drift, magnitude in [("none", 0.0), ("gradual", 1.5), ("abrupt", 2.5)]:
    moved = DriftGenSpec(n_rows=2000, n_cat=2, n_num=4, n_mvc=0, n_time=1,
                         n_blocks=10, drift=drift, drift_magnitude=magnitude,
                         seed=7)
    stream = generate_drift_stream(moved)
    per_block = [
        float(np.mean(stream.labels[lo:hi]))
        for lo, hi in plan_blocks(len(stream), 10)
    ]
    print(f"\n{drift:>8} (magnitude {magnitude}): positive rate per block")
    print("   " + " ".join(f"{p:.2f}" for p in per_block))

print("\nSame spec, same seed => bit-identical stream:")
again = generate_drift_stream(spec)
print("   identical:", again.text == ds.text and np.array_equal(again.labels, ds.labels))
