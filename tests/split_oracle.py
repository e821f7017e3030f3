"""One node's split search, as the tests check it: a plain Gini, a split
record, the forest's own split kernel called on a batch of one node, and an
exhaustive search to compare it with.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from opttriage.forest.kernels import rank_rows, split_scan


def gini(class_counts: Sequence[int]) -> float:
    """Gini impurity of an (easy, hard) count pair."""
    e, h = class_counts
    if e < 0 or h < 0:
        raise ValueError("class counts must be non-negative")
    n = e + h
    if n == 0:
        raise ValueError("empty node has no impurity")
    pe = e / n
    ph = h / n
    return 1.0 - pe * pe - ph * ph


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    decrease: float


def scan_one_node(x, y, candidates: Sequence[int], min_leaf: int) -> Optional[Split]:
    """`split_scan`'s best cut of one node holding every row of x, or None.

    Candidates are scored in ascending order, as a growth passes them.
    """
    cands = np.array(sorted(map(int, candidates)), dtype=np.int64).reshape(1, -1)
    feature, threshold, decrease = split_scan(
        rank_rows(x, y), np.arange(len(y)), [len(y)], cands, min_leaf
    )
    if feature[0] < 0:
        return None
    return Split(int(feature[0]), float(threshold[0]), float(decrease[0]))


def brute_split(x, y, min_leaf: int) -> Optional[Split]:
    """Exhaustive reference: every midpoint of every feature, in ascending
    order, and only a strictly greater decrease replaces the best so far."""
    n = len(y)
    parent = gini((int(n - y.sum()), int(y.sum())))
    best = None
    for f in range(x.shape[1]):
        vals = np.unique(x[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (float(a) + float(b)) / 2.0
            left = x[:, f] <= thr
            n_l = int(left.sum())
            n_r = n - n_l
            if n_l < min_leaf or n_r < min_leaf:
                continue
            g_l = gini((int((y[left] == 0).sum()), int((y[left] == 1).sum())))
            g_r = gini((int((y[~left] == 0).sum()), int((y[~left] == 1).sum())))
            dec = parent - (n_l * g_l + n_r * g_r) / n
            if dec > 0.0 and (best is None or dec > best.decrease):
                best = Split(feature=f, threshold=thr, decrease=dec)
    return best
