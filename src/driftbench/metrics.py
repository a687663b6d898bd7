"""Block-wise ROC AUC scoring.

AUC is computed with the rank-statistic (Mann-Whitney) formulation: sum the
average ranks of the positives, subtract the minimum possible rank sum, and
divide by the number of (positive, negative) pairs.  Ties contribute 1/2.
This is O(n log n) and equals the brute-force pairwise count exactly.
"""

from __future__ import annotations

import numpy as np


class UndefinedAUCError(ValueError):
    """AUC needs at least one positive and one negative label."""


def auc(labels, scores) -> float:
    """Area under the ROC curve of ``scores`` against binary ``labels``.

    Equals the probability that a uniformly random positive outranks a
    uniformly random negative, with ties counted one half.
    """
    y = np.asarray(labels, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError(f"{y.shape[0]} labels but {s.shape[0]} scores")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("labels contain a single class; AUC is undefined")

    # Average rank (1-based) per tie group.
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    ranks = (starts + 0.5 * (counts - 1) + 1.0)[group]

    rank_sum_pos = float(ranks[y == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)
