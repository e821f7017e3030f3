"""Hot loops of the forest: split search and batch tree routing, in numpy.

`split_scan` scores every cut of every candidate feature of one node in a
single 2-D pass, so growing a tree costs one kernel call per node. Class
counts are whole numbers, exact in float64, and every Gini term is
evaluated in one fixed order, so the same rows, params and seed always
give the same thresholds and the same model bytes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# ----------------------------------------------------------------- split scan
#
# A cut c of a column sorted ascending puts its c smallest rows on the left.
# Its threshold is the midpoint between the values on either side, so a cut
# is usable only where those values differ, and only when both sides hold at
# least min_leaf rows: c in [min_leaf, n - min_leaf]. Cuts are compared in
# feature-major order and the first maximum wins, so ties keep the lowest
# candidate column, then the lowest threshold.


def split_scan(
    block: np.ndarray, labels: np.ndarray, min_leaf: int
) -> Optional[tuple[int, float, float]]:
    """Best cut over a node's candidate columns.

    block is f8[n, k], one column per candidate feature; labels is i1[n] of
    0/1. Returns (column, threshold, decrease) for the cut with the largest
    Gini decrease, or None when no usable cut strictly decreases impurity.
    """
    n, k = block.shape
    lo, hi = max(min_leaf, 1), n - min_leaf
    if lo > hi or k == 0:
        return None
    m = hi - lo + 1
    order = block.argsort(axis=0)
    sv = block[order, np.arange(k)]
    h_tot = np.count_nonzero(labels)
    e_tot = n - h_tot
    pe = e_tot / n
    ph = h_tot / n
    g_parent = 1.0 - pe * pe - ph * ph

    # Axis 0 is the side of the cut: 0 left, 1 right.
    size = np.empty((2, m, 1))  # rows on the side
    size[0, :, 0] = np.arange(lo, hi + 1)
    np.subtract(n, size[0], out=size[1])
    hard = np.empty((2, m, k))  # hard rows on the side
    hard[0] = labels[order].cumsum(axis=0)[lo - 1 : hi]
    np.subtract(h_tot, hard[0], out=hard[1])
    # gini = 1 - pe*pe - ph*ph per side, then weighted by the side's size
    g = size - hard
    g /= size
    g *= g
    np.subtract(1.0, g, out=g)
    hard /= size
    hard *= hard
    g -= hard
    g *= size
    dec = g[0] + g[1]
    dec /= n
    np.subtract(g_parent, dec, out=dec)
    np.putmask(dec, sv[lo : hi + 1] == sv[lo - 1 : hi], -np.inf)

    col, r = divmod(int(dec.T.argmax()), m)
    best = float(dec[r, col])
    if best <= 0.0:
        return None
    cut = lo + r
    return col, float((sv[cut - 1, col] + sv[cut, col]) / 2.0), best


# ---------------------------------------------------------------- tree routing
#
# Route rows through one tree laid out as parallel node arrays:
# feature[i] < 0 marks a leaf whose class is label[i], otherwise compare
# x[feature[i]] <= threshold[i] and continue left or right. All rows advance
# one level per pass.


def route_tree(feature, threshold, left, right, label, x_rows) -> np.ndarray:
    """Leaf class (0/1) per row of x_rows for one array-layout tree."""
    n = x_rows.shape[0]
    node = np.zeros(n, dtype=np.int64)
    pending = feature[node] >= 0
    while pending.any():
        rows = np.nonzero(pending)[0]
        at = node[rows]
        goes_left = x_rows[rows, feature[at]] <= threshold[at]
        node[rows] = np.where(goes_left, left[at], right[at])
        pending = feature[node] >= 0
    return label[node].astype(np.int8)
