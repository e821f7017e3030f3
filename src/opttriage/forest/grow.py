"""Forest growth: all trees grow together, each step a fixed number of array ops.

Each tree keeps its own generator and its own preorder stack, one row of a
dense (trees, D + 1) table, D the smaller of max_tree_depth and the largest
sample; a preorder stack never holds more, for no node of an n-row sample
is deeper than n - 1.
A step pops, for every tree it takes, the run of leaves on top of its stack
(the pure and depth-capped nodes) and the next node that may split; draws
the candidate features of all of them at once (`draws.candidates`); scores
them in one `kernels.split_scan` call; and pushes the children of each
split. A tree visits its nodes in preorder and draws from its own
generator in that order, so it comes out as if grown alone.

Each tree's bootstrap rows fill one segment of an int32 pool for the
whole growth, and a node's rows are a slice of it: a split partitions its
node's slice in place, stably, its left rows first, so its children are
the two halves, as in depth-first builders (Pedregosa et al., "Scikit-learn:
Machine Learning in Python", JMLR 12, 2011). Popped nodes go to an
append-only log. Once the growth is done it is sorted by tree, each node
numbered by its place in its tree's preorder, and joined per forest.

The trees of one growth may come from several forests: cross-validation
grows the forests of all its folds in one growth, over one ranking of the
whole table, each tree on a bootstrap of its own fold's rows. At seed 901
(2000 rows, 25 trees, 5 folds) that takes the folds' split scans from
1,291 in five growths to 306 in one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from opttriage.forest import draws, kernels

if TYPE_CHECKING:
    from opttriage.forest.model import ForestParams

# A growth step takes nodes from further trees only while it holds fewer
# rows. At seed 901 a 5-fold cross-validation (125 trees of ~1,600 rows)
# makes 747 scans at 2048 rows a step and 306 at 8192.
_STEP_ROWS = 8192

# A stack entry: its rows pool[lo : lo+n], its depth, its hard rows, and the
# log index of the node whose right child it is, or -1.
_LO, _DEPTH, _N, _HARD, _PARENT = range(5)
# The rows of the growth's int32 node log: a node's tree, its rows, its hard
# rows, its parent as in the stack, and its feature (-1 at leaves).
_TREE, _FEATURE = 0, 4


def bootstrap(rng: np.random.Generator, n_rows: int, fraction: float) -> np.ndarray:
    """A tree's sample of row indices, drawn with replacement: its generator's first draw."""
    return rng.integers(0, n_rows, size=max(1, int(round(fraction * n_rows))))


def grow_trees(
    x_rows: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    roots: Iterable[tuple[np.random.Generator, np.ndarray]],
    forest_size: int,
) -> Iterator[dict[str, np.ndarray]]:
    """Grow one tree per (generator, sample) pair, all in one growth.

    A sample holds indices into x_rows. The growth runs at the call; the
    returned iterator joins the `NodeTable` fields of each forest, a run of
    forest_size trees in root order, when it is reached. A step takes the
    next node that may split from each tree with work left, in tree order,
    until it holds _STEP_ROWS rows; the trees it leaves out wait for the
    next step. Each tree keeps its own preorder and its own draws, so the
    order in which trees advance changes none.
    """
    rngs, samples = zip(*roots)
    cap, width, k = params.max_tree_depth, x_rows.shape[1], params.features_per_split
    sizes, hard = np.array([(len(sample), np.count_nonzero(y[sample])) for sample in samples]).T
    pool = np.concatenate(samples, dtype=np.int32)
    del samples
    n_trees, starts = len(rngs), sizes.cumsum() - sizes
    deepest = min(cap, int(sizes.max()))
    stack = np.zeros((5, n_trees, deepest + 1), dtype=np.int64)
    stack[:, :, 0] = np.broadcast_arrays(starts, 0, sizes, hard, -1)
    top = np.ones(n_trees, dtype=np.int64)
    log, logged = [], 0  # per step, its popped nodes: (int32[5, m], their thresholds)
    blocks = draws.CandidateBlocks(rngs, width, k, int(sizes.max()))
    ranked, x_flat = kernels.rank_rows(x_rows, y), x_rows.ravel()
    slots, every = np.arange(deepest + 1), np.arange(n_trees)
    # A step calls array methods and ufuncs, which run in C, rather than
    # numpy's functions of the same names, which are Python wrappers.
    while np.logical_or.reduce(top):
        # Per tree, the slot of its topmost node that may split (else 0), and its rows.
        n, hard = stack[_N], stack[_HARD]
        live = (hard > 0) & (hard < n) & (stack[_DEPTH] < cap) & (slots < top[:, None])
        has = np.logical_or.reduce(live, axis=1)
        base = (deepest - live[:, ::-1].argmax(axis=1)) * has
        rows_at = n[every, base] * has
        trees = ((top > 0) & (rows_at.cumsum() - rows_at < _STEP_ROWS)).nonzero()[0]

        # Log each taken tree's slots top-1 .. base, popped in that order.
        count = top[trees] - base[trees]
        ends = count.cumsum()
        tree_of = trees.repeat(count)
        slot = (top[trees] - 1 + ends - count).repeat(count) - np.arange(ends[-1])
        popped = stack[:, tree_of, slot]
        nodes, thresholds = np.empty((5, len(slot)), dtype=np.int32), np.zeros(len(slot))
        nodes[_TREE] = tree_of
        nodes[1:_FEATURE] = popped[_N:]
        nodes[_FEATURE] = -1
        log.append((nodes, thresholds))
        top[trees] = base[trees]
        drawing = has[trees]
        trees, last = trees[drawing], ends[drawing] - 1
        taken, at = popped[:, last], logged + last
        logged += len(slot)
        if not len(trees):
            continue

        cands = draws.candidates(blocks, trees)
        lo, n = taken[_LO], taken[_N]
        starts = n.cumsum() - n
        in_pool = np.arange(starts[-1] + n[-1]) + (lo - starts).repeat(n)
        rows = pool[in_pool]
        feature, threshold, _ = kernels.split_scan(ranked, rows, n, cands, params.min_samples_leaf)
        nodes[_FEATURE, last] = feature
        thresholds[last] = threshold

        # The side of each row under its node's split; rows of unsplit nodes
        # read feature -1, a value of no use, and are never used again.
        key_type = np.int16 if len(trees) < 2**14 else np.int64  # int16 sorts by radix
        node_of = np.arange(len(trees), dtype=key_type).repeat(n)
        at_x = np.multiply(rows, width, dtype=np.int64) + feature[node_of]
        goes_left = x_flat[at_x] <= threshold[node_of]
        # A stable partition of each node's slice: its left rows, then its right rows.
        pool[in_pool] = rows[(2 * node_of + ~goes_left).argsort(kind="stable")]
        n_left = np.add.reduceat(goes_left, starts, dtype=np.int64)
        h_left = np.add.reduceat(goes_left & y[rows], starts, dtype=np.int64)

        # Push each split node's right child, then its left child, in its slot.
        taken[_DEPTH] += 1
        right = taken.copy()
        right[_LO], right[_N], right[_HARD], right[_PARENT] = (
            lo + n_left, n - n_left, taken[_HARD] - h_left, at
        )
        taken[_N], taken[_HARD], taken[_PARENT] = n_left, h_left, -1
        split = feature >= 0
        trees, slot = trees[split], base[trees[split]]
        stack[:, trees, slot] = right[:, split]
        stack[:, trees, slot + 1] = taken[:, split]
        top[trees] = slot + 2
    return _forests(log, n_trees, forest_size)


def _forests(log: list, n_trees: int, forest_size: int) -> Iterator[dict[str, np.ndarray]]:
    """The `NodeTable` fields of each forest in the log, tree after tree, each in preorder."""
    thresholds = np.concatenate([block for _, block in log])
    tree, n, hard, parent, feature = np.concatenate([nodes for nodes, _ in log], axis=1)
    del log[:]  # the steps' blocks, before the forests' tables are built
    order = np.argsort(tree, kind="stable")  # a tree's nodes are logged in preorder
    sizes = np.bincount(tree, minlength=n_trees)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    local = np.empty(len(tree), dtype=np.int32)  # each node's index within its tree
    local[order] = np.arange(len(tree), dtype=np.int32) - np.repeat(bounds[:-1], sizes)
    right = np.full(len(tree), -1, dtype=np.int32)
    is_right = parent >= 0
    right[parent[is_right]] = local[is_right]
    for a in range(0, n_trees, forest_size):
        picked = order[bounds[a] : bounds[a + forest_size]]
        yield {
            "sizes": sizes[a : a + forest_size].astype(np.int64),
            "feature": feature[picked],
            "threshold": thresholds[picked],
            "right": right[picked],
            "count_easy": (n[picked] - hard[picked]).astype(np.int64),
            "count_hard": hard[picked].astype(np.int64),
        }
