"""Hot loops of the forest: split search and batch forest routing, in numpy.

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


# -------------------------------------------------------------- forest routing
#
# Route rows through every tree of a forest at once. The forest's nodes sit
# in one set of arrays, tree after tree, each tree in preorder:
# feature[i] < 0 marks a leaf; otherwise compare x[feature[i]] <= threshold[i]
# and continue at i + 1 (left) or at right[i]. Each (row, tree) pair is one
# entry of a rows x trees node matrix, and every entry still at an internal
# node advances one level per pass.


def route_forest(feature, threshold, right, roots, x_rows) -> np.ndarray:
    """Leaf reached by each row in each tree: int64[rows, trees] of node indices.

    right and roots hold indices into the forest's node arrays; x_rows is a
    C-contiguous f8[rows, width].
    """
    n_rows, width = x_rows.shape
    node = np.tile(roots, n_rows)  # row-major: every tree of row 0, then of row 1, ...
    row_start = np.repeat(np.arange(n_rows) * width, len(roots))
    x_flat = x_rows.ravel()
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = x_flat[row_start[active] + feature[at]] <= threshold[at]
        at = np.where(goes_left, at + 1, right[at])
        node[active] = at
        active = active[feature[at] >= 0]
    return node.reshape(n_rows, len(roots))
