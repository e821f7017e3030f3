"""Forest growth: all trees grow together, one batched split scan per step.

Each tree keeps its own generator and its own preorder stack of row-index
arrays. A step takes the next node that may split from every tree with
work left, draws the candidate features of all of them at once
(`draws.candidates`), scores them in one `kernels.split_scan` call and
pushes the children of each split. A tree visits its nodes in preorder and
draws from its own generator in that order, so it comes out as if grown
alone.

The trees of one growth may come from several forests: cross-validation
grows the forests of all its folds in one growth, over one ranking of the
whole table, each tree on a bootstrap of its own fold's rows. At seed 901
(2000 rows, 25 trees, 5 folds) that takes the folds' split scans from
1,291 in five growths to 306 in one. To keep the memory of 125 concurrent
trees near that of 25, a tree starts (and draws its bootstrap) only when a
step first reaches it, row indices are int32, node fields grow in typed
arrays, and each forest's table is joined only when the caller reaches it.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from opttriage.forest import draws, kernels

if TYPE_CHECKING:
    from opttriage.forest.model import ForestParams

# A growth step takes nodes from further trees only while it holds fewer
# rows. At seed 901 a 5-fold cross-validation (125 trees of ~1,600 rows)
# makes 747 scans at 2048 rows a step and 306 at 8192.
_STEP_ROWS = 8192

# Each node field's typed-array code while it grows (a numpy type code too),
# and the dtype a grown forest returns it in.
_FIELDS = {
    "feature": ("i", np.int32),
    "threshold": ("d", np.float64),
    "right": ("i", np.int32),
    "count_easy": ("i", np.int64),  # at most the rows of one sample
    "count_hard": ("i", np.int64),
}


class _Growing:
    """One tree being grown: its generator's words, its nodes so far in preorder,
    and a stack of the nodes still to visit, each as (rows, depth, n_easy,
    n_hard, parent), where parent is the node whose right child it is, or -1."""

    __slots__ = ("words", "stack", *_FIELDS)

    def __init__(self, rng: np.random.Generator, sample: np.ndarray, n_hard: int):
        self.words = draws.WordStream(rng)
        self.stack = [(sample, 0, len(sample) - n_hard, n_hard, -1)]
        for key, (code, _) in _FIELDS.items():
            setattr(self, key, array(code))

    def next_drawing_node(self, max_depth: int) -> Optional[tuple[int, np.ndarray, int]]:
        """Visit nodes in preorder up to the next one that may split: (node, rows, depth).

        The pure and depth-capped nodes on the way become leaves; None when
        the tree is done.
        """
        while self.stack:
            rows, depth, n_easy, n_hard, parent = self.stack.pop()
            node = len(self.feature)
            if parent >= 0:
                self.right[parent] = node
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.right.append(-1)
            self.count_easy.append(n_easy)
            self.count_hard.append(n_hard)
            if n_easy and n_hard and depth < max_depth:
                return node, rows, depth
        return None


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
    width = x_rows.shape[1]
    k = params.features_per_split
    ranked = kernels.rank_rows(x_rows, y)
    trees: list[_Growing] = []
    started = _started(roots, y, trees)
    waiting: list[_Growing] = []
    while True:
        n_started = len(trees)
        taken, step_rows = [], 0
        for tree in chain(waiting, started):
            if step_rows >= _STEP_ROWS:
                break
            found = tree.next_drawing_node(params.max_tree_depth)
            if found is not None:
                taken.append((tree, *found))
                step_rows += len(found[1])
        if taken:
            cands = draws.candidates([tree.words for tree, *_ in taken], width, k)
            _split_taken(x_rows, ranked, y, params.min_samples_leaf, taken, cands)
        waiting = [tree for tree in chain(waiting, trees[n_started:]) if tree.stack]
        if not waiting:
            break
    return (_joined(trees[i : i + forest_size]) for i in range(0, len(trees), forest_size))


def _joined(trees: list[_Growing]) -> dict[str, np.ndarray]:
    """The `NodeTable` fields of grown trees, tree after tree; frees each tree's buffers."""
    fields = {"sizes": np.array([len(tree.feature) for tree in trees], dtype=np.int64)}
    for key, (code, dtype) in _FIELDS.items():
        parts = [np.frombuffer(getattr(tree, key), dtype=code) for tree in trees]
        fields[key] = np.concatenate(parts, dtype=dtype)
        del parts
        for tree in trees:
            delattr(tree, key)
    return fields


def _started(roots, y, trees: list[_Growing]) -> Iterator[_Growing]:
    """Start each root's tree when a step first reaches it, appending it to trees."""
    for rng, sample in roots:
        tree = _Growing(rng, sample.astype(np.int32, copy=False), int(np.count_nonzero(y[sample])))
        trees.append(tree)
        yield tree


def _split_taken(x_rows, ranked, y, min_leaf: int, taken, cands) -> None:
    """Score a step's taken nodes in one kernel call; record each split and push its children."""
    sizes = np.array([len(rows) for _, _, rows, _ in taken])
    rows = np.concatenate([rows for _, _, rows, _ in taken])
    feature, threshold, _ = kernels.split_scan(ranked, rows, sizes, cands, min_leaf)
    # The side of each row under its node's split; rows of unsplit nodes
    # read feature -1, the last column, and are never used.
    node_of = np.repeat(np.arange(len(taken)), sizes)
    goes_left = x_rows[rows, feature[node_of]] <= threshold[node_of]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    left = np.zeros((2, len(rows) + 1), dtype=np.int64)  # running left rows, left hard rows
    np.cumsum(goes_left, out=left[0, 1:])
    np.cumsum(goes_left & (y[rows] != 0), out=left[1, 1:])
    n_left, h_left = left[:, ends] - left[:, starts]
    for (tree, node, node_rows, depth), f, thr, start, end, nl, hl in zip(
        taken, feature.tolist(), threshold.tolist(), starts.tolist(), ends.tolist(),
        n_left.tolist(), h_left.tolist(),
    ):
        if f < 0:
            continue
        tree.feature[node] = f
        tree.threshold[node] = thr
        side = goes_left[start:end]
        n_easy, n_hard = tree.count_easy[node], tree.count_hard[node]
        tree.stack.append((node_rows[~side], depth + 1, n_easy - nl + hl, n_hard - hl, node))
        tree.stack.append((node_rows[side], depth + 1, nl - hl, hl, -1))
