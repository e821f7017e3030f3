"""The forest's former grower, kept as a test oracle: one tree at a time,
grown by recursion in preorder, each node scored by its own 2-D split scan.

`opttriage.forest.model` grows all trees of a forest together, in batched
steps; the trees it grows must equal these, field by field.
"""

from types import SimpleNamespace

import numpy as np

from opttriage.forest import EASY, HARD, NodeTable, grow


def reference_split_scan(block, labels, min_leaf):
    """Best cut over one node's candidate columns: (column, threshold, decrease) or None.

    block is f8[n, k]; labels is i1[n] of 0/1. Every cut of every column is
    scored in one 2-D pass, and the first maximum in column-major order wins.
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
    size = np.empty((2, m, 1))
    size[0, :, 0] = np.arange(lo, hi + 1)
    np.subtract(n, size[0], out=size[1])
    hard = np.empty((2, m, k))
    hard[0] = labels[order].cumsum(axis=0)[lo - 1 : hi]
    np.subtract(h_tot, hard[0], out=hard[1])
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


class _TreeBuilder:
    def __init__(self, params, width, rng):
        self.params = params
        self.width = width
        self.rng = rng
        self.fields = {key: [] for key in ("feature", "threshold", "left", "right", "label",
                                           "count_easy", "count_hard")}

    def grow(self, x_rows, y, depth):
        n_hard = int(np.count_nonzero(y))
        n_easy = len(y) - n_hard
        f = self.fields
        node = len(f["feature"])
        for key, value in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1),
                           ("label", -1), ("count_easy", n_easy), ("count_hard", n_hard)):
            f[key].append(value)
        found = None
        if n_easy > 0 and n_hard > 0 and depth < self.params.max_tree_depth:
            k = self.params.features_per_split
            cands = np.sort(self.rng.choice(self.width, size=k, replace=False))
            found = reference_split_scan(x_rows.take(cands, axis=1), y,
                                         self.params.min_samples_leaf)
        if found is None:
            f["label"][node] = HARD if n_hard >= n_easy else EASY
            return node
        col, threshold, _ = found
        feature = int(cands[col])
        goes_left = x_rows[:, feature] <= threshold
        f["feature"][node] = feature
        f["threshold"][node] = threshold
        f["left"][node] = self.grow(x_rows[goes_left], y[goes_left], depth + 1)
        f["right"][node] = self.grow(x_rows[~goes_left], y[~goes_left], depth + 1)
        return node


def reference_tree(x_rows, y, params, rng) -> SimpleNamespace:
    """One tree on a bootstrap sample drawn first from rng; params must be resolved."""
    n, width = x_rows.shape
    sample = rng.integers(0, n, size=max(1, int(round(params.bootstrap_fraction * n))))
    builder = _TreeBuilder(params, width, rng)
    builder.grow(x_rows[sample], y[sample], depth=0)
    dtypes = {"feature": np.int32, "threshold": np.float64, "left": np.int32, "right": np.int32,
              "label": np.int8, "count_easy": np.int64, "count_hard": np.int64}
    return SimpleNamespace(**{key: np.asarray(values, dtype=dtypes[key])
                              for key, values in builder.fields.items()})


def reference_forest(x_rows, y, params) -> list:
    """The trees `train` grows: tree t from default_rng(rng_seed ^ t)."""
    return [reference_tree(x_rows, y, params, np.random.default_rng(params.rng_seed ^ t))
            for t in range(params.n_trees)]


def grow_one_tree(x_rows, y, params, rng) -> tuple[NodeTable, np.ndarray]:
    """One tree through the forest's grower, on a bootstrap sample drawn first
    from rng; returns the tree and the sample. params must be resolved."""
    sample = grow.bootstrap(rng, len(x_rows), params.bootstrap_fraction)
    (fields,) = grow.grow_trees(x_rows, y, params, [(rng, sample)], forest_size=1)
    return NodeTable(**fields), sample


def assert_same_trees(got, want) -> None:
    assert len(got) == len(want)
    for t, (a, b) in enumerate(zip(got, want)):
        for key in ("feature", "threshold", "left", "right", "label", "count_easy", "count_hard"):
            got_field, want_field = getattr(a, key), getattr(b, key)
            assert got_field.dtype == want_field.dtype, f"tree {t} {key}"
            assert got_field.tobytes() == want_field.tobytes(), f"tree {t} {key}"
