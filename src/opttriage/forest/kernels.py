"""Hot loops of the forest: split search and batch forest routing, in numpy.

`split_scan` scores every cut of every candidate feature of many nodes in
one pass, so a growth step of a whole forest costs one kernel call. Class
counts are whole numbers, exact in float64, and every Gini term is
evaluated in one fixed order, so the same rows, params and seed always
give the same thresholds and the same model bytes. It calls array methods
and ufuncs, not numpy's Python wrappers of the same names (`np.repeat`,
`np.cumsum`, ...), whose cost is fixed per call and adds up over a
growth's hundreds of steps.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# ----------------------------------------------------------------- split scan
#
# A cut c of a column sorted ascending puts its c smallest rows on the left.
# Its threshold is the midpoint between the values on either side, so a cut
# is usable only where those values differ, and only when both sides hold at
# least min_leaf rows: c in [min_leaf, n - min_leaf]. Within a node, cuts
# are compared in feature-major order and the first maximum wins, so ties
# keep the lowest candidate feature, then the lowest threshold.
#
# A batch sorts the columns of all its (node, candidate) pairs at once. Each
# entry's key is its column's index, then the dense rank of its value, then
# its label, packed into one int64, so one sort orders every column by value,
# column after column, and the labels come along in the low bit. Rows of
# equal value may come out in any order; no usable cut falls between them,
# so no result depends on that order.


class RankedRows(NamedTuple):
    """Training rows as `split_scan` reads them; `rank_rows` builds them once per training set."""

    codes: np.ndarray  # int64[W, N]: 2 * the dense rank of the value in its column + the row's label
    values: np.ndarray  # f8: the distinct values of each column, ascending, column after column
    offsets: np.ndarray  # int64[W]: where each column's distinct values begin in values


def rank_rows(x_rows: np.ndarray, labels: np.ndarray) -> RankedRows:
    """Rank x_rows (f8[N, W]) column by column; labels is i1[N] of 0/1."""
    columns = x_rows.T
    order = columns.argsort(axis=1)
    sv = np.take_along_axis(columns, order, axis=1)
    new_value = np.ones(sv.shape, dtype=bool)
    np.not_equal(sv[:, 1:], sv[:, :-1], out=new_value[:, 1:])
    values = sv[new_value]
    del sv  # freed before the codes are built, which lowers the peak
    sorted_codes = np.cumsum(new_value, axis=1)
    sorted_codes -= 1
    sorted_codes *= 2
    sorted_codes += labels[order]
    codes = np.empty_like(sorted_codes)
    np.put_along_axis(codes, order, sorted_codes, axis=1)
    distinct = new_value.sum(axis=1)
    return RankedRows(codes, values, np.cumsum(distinct) - distinct)


def split_scan(
    ranked: RankedRows, rows, sizes, cands, min_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best cut of each node of a batch.

    Node j holds the next sizes[j] entries of rows (indices into the ranked
    rows, repeats allowed) and scores the candidate features cands[j],
    ascending (int[J, k]). Returns (feature, threshold, decrease), one entry
    per node; feature is -1 where no usable cut strictly decreases impurity.
    """
    n_nodes, k = cands.shape
    n_rows = ranked.codes.shape[1]
    feature = np.empty(n_nodes, dtype=np.int64)
    feature[:] = -1
    threshold = np.zeros(n_nodes)
    decrease = np.zeros(n_nodes)
    sizes = np.asarray(sizes, dtype=np.int64)
    # Entry (c, r) is row r under its node's candidate c, in column j*k + c.
    # The batch's few entry-sized arrays are built in place, which keeps a
    # large step's peak memory to two of them.
    index = (cands.T * n_rows).repeat(sizes, axis=1)
    index += rows
    key = ranked.codes.take(index)
    del index
    key += (np.arange(n_nodes) * (k * 2 * n_rows)).repeat(sizes)
    key += (np.arange(k) * (2 * n_rows))[:, None]
    key = key.ravel()
    key.sort()
    # hard[p]: hard rows among the first p, int32 while the batch allows
    hard = np.zeros(len(key) + 1, dtype=np.int32 if len(key) < 2**31 else np.int64)
    np.bitwise_and(key, 1, out=hard[1:], casting="unsafe")
    hard[1:].cumsum(out=hard[1:])
    key >>= 1  # column * n_rows + rank

    # Usable cuts: the value changes at entry p, and the cut respects min_leaf.
    # Column j*k + c holds node j's entries, so it starts at k*start_j + c*n_j.
    col_size = sizes.repeat(k)
    col_start = col_size.cumsum() - col_size
    p = _run_starts(key).nonzero()[0]
    col = key[p] // n_rows
    cut = p - col_start[col]
    j = col // k
    n = sizes[j]
    keep = (cut >= max(min_leaf, 1)) & (cut <= n - min_leaf)
    p, col, cut, j, n = p[keep], col[keep], cut[keep], j[keep], n[keep]
    if not len(p):
        return feature, threshold, decrease

    start = col_start[col]
    h_tot = hard[start + n] - hard[start]
    h_left = hard[p] - hard[start]
    pe = (n - h_tot) / n
    ph = h_tot / n
    g_parent = 1.0 - pe * pe - ph * ph
    dec = _weighted_gini(cut.astype(np.float64), h_left.astype(np.float64))
    dec += _weighted_gini((n - cut).astype(np.float64), (h_tot - h_left).astype(np.float64))
    dec /= n
    np.subtract(g_parent, dec, out=dec)

    # The first maximum of each node's run of cuts, if it decreases impurity.
    starts = _run_starts(j)
    first = starts.nonzero()[0]
    best = np.maximum.reduceat(dec, first)
    at_max = (dec == best[starts.cumsum() - 1]).nonzero()[0]
    win = at_max[_run_starts(j[at_max])]
    win = win[dec[win] > 0.0]

    jw, pw = j[win], p[win]
    f = cands[jw, col[win] % k]
    feature[jw] = f
    at = ranked.offsets[f]
    below, above = ranked.values[at + key[pw - 1] % n_rows], ranked.values[at + key[pw] % n_rows]
    threshold[jw] = (below + above) / 2.0
    decrease[jw] = dec[win]
    return feature, threshold, decrease


def _run_starts(a: np.ndarray) -> np.ndarray:
    """bool like a: True where a run of equal values begins."""
    starts = np.empty(len(a), dtype=bool)
    starts[:1] = True
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _weighted_gini(size: np.ndarray, hard: np.ndarray) -> np.ndarray:
    """size * (1 - pe*pe - ph*ph) for one side of each cut, in place over its arguments."""
    g = size - hard
    g /= size
    g *= g
    np.subtract(1.0, g, out=g)
    hard /= size
    hard *= hard
    g -= hard
    g *= size
    return g


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
