"""Host-speed samples that let run.py report times in reference seconds.

On a shared host the same code runs up to 40 % slower or faster from one
second to the next (other tenants' load on the same physical cores), and
how much of a minute is slow changes from minute to minute.  That drift is
larger than any bound a regression check can use, and more iterations per
run do not average it away.  So run.py pins a worker and this probe to one
CPU and, while the worker runs, times one unit of a fixed kernel every
0.1 s.  An iteration's phase time, less the CPU time of the units run
inside it, is then scaled by ``REFERENCE_UNIT_S / mean unit time`` over
that phase: it reads what it would on a host where one unit takes
``REFERENCE_UNIT_S``.  The kernel is
the benchmark's own code and never changes with the program, so a slower
program still reads slower; only the host's speed is divided out.

The kernel mirrors the two kinds of work the judge spends its time on:
the boosted learner's split search (per-column gathers over a row subset,
a stable sort, prefix sums and an arg-max, in a Python loop over columns
of a matrix a few MB large) and row encoding (looking up each string cell
of tuple rows in a large vocabulary).  Timed beside the judge, the sum of
the two tracks its speed better than either alone.  Its inputs are fixed;
the workload seed does not reach them.

Usage: ``python3 bench/calibrate.py`` prints a few probe results.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

#: One kernel unit's CPU time, in seconds, on the host the bounds were set
#: on (2 vCPU Xeon at 2.0 GHz).  Only a scale: any constant would do.
REFERENCE_UNIT_S = 0.005
#: Units timed per ``probe``; it reports their median.
UNITS = 20
#: Columns one unit searches and rows it encodes.
_COLUMNS = 12
_ENCODED_ROWS = 350

_RNG = np.random.default_rng(20190313)
_X = np.round(_RNG.normal(size=(4000, 96)), 2)
_R = _RNG.normal(size=1500)
_SUBSETS = [np.sort(_RNG.choice(4000, size=1500, replace=False)) for _ in range(4)]
_WORDS = [f"w{i:05d}x" for i in range(20000)]
_VOCAB = {w: i for i, w in enumerate(_WORDS)}
_ROWS = [tuple(_WORDS[j] for j in row) for row in _RNG.integers(0, len(_WORDS), size=(30000, 12))]
_COUNTER = itertools.count()


def _unit() -> float:
    k = next(_COUNTER)
    rows = _SUBSETS[k % len(_SUBSETS)]
    first = (k * _COLUMNS) % _X.shape[1]
    total = _R.sum()
    best = 0.0
    for j in range(first, first + _COLUMNS):
        v = _X[rows, j]
        order = np.argsort(v, kind="mergesort")
        vs = v[order]
        cum = np.cumsum(_R[order])
        cuts = np.nonzero(vs[:-1] < vs[1:])[0]
        n_left = cuts + 1
        s_left = cum[cuts]
        gain = s_left * s_left / n_left + (total - s_left) ** 2 / (len(_R) - n_left)
        best = max(best, float(gain[int(np.argmax(gain))]))
    first_row = (k * _ENCODED_ROWS) % (len(_ROWS) - _ENCODED_ROWS)
    codes = [[_VOCAB.get(cell, -1) for cell in row]
             for row in _ROWS[first_row:first_row + _ENCODED_ROWS]]
    return best + len(codes)


def unit_time() -> float:
    """CPU seconds one kernel unit takes now (time spent preempted is left out)."""
    t = time.thread_time()
    _unit()
    return time.thread_time() - t


def probe() -> float:
    """Median CPU seconds of one kernel unit over UNITS units, timed now."""
    return statistics.median(unit_time() for _ in range(UNITS))


if __name__ == "__main__":
    _unit()
    for _ in range(5):
        print(f"{probe():.6f}")
