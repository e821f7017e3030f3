"""Forest growth: all trees of a forest grow together, one batched split scan per step.

Each tree keeps its own generator and its own preorder stack of row-index
arrays. A step takes the next node that may split from every tree with
work left, scores all of them in one `kernels.split_scan` call and pushes
the children of each split. A tree visits its nodes in preorder and draws
from its own generator in that order, so it comes out as if grown alone.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from opttriage.forest import kernels

if TYPE_CHECKING:
    from opttriage.forest.model import ForestParams

# A growth step takes nodes from further trees only while it holds fewer rows.
_STEP_ROWS = 2048


class _Growing:
    """One tree being grown: its generator, its nodes so far in preorder, and a
    stack of the nodes still to visit, each as (rows, depth, n_easy, n_hard,
    parent), where parent is the node whose right child it is, or -1."""

    __slots__ = ("rng", "stack", "feature", "threshold", "right", "count_easy", "count_hard")

    def __init__(self, rng: np.random.Generator, sample: np.ndarray, n_hard: int):
        self.rng = rng
        self.stack = [(sample, 0, len(sample) - n_hard, n_hard, -1)]
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.right: list[int] = []
        self.count_easy: list[int] = []
        self.count_hard: list[int] = []

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
) -> dict[str, list]:
    """Grow one tree per (generator, bootstrap sample) pair; returns `NodeTable` fields as lists.

    A step takes the next node that may split from each tree with work
    left, in tree order, until it holds _STEP_ROWS rows; the trees it
    leaves out wait for the next step. Each tree keeps its own preorder
    and its own draws, so the order in which trees advance changes none.
    """
    width = x_rows.shape[1]
    k = params.features_per_split
    ranked = kernels.rank_rows(x_rows, y)
    trees = [_Growing(rng, sample, int(np.count_nonzero(y[sample]))) for rng, sample in roots]
    waiting = trees
    while waiting:
        taken, cands, step_rows = [], [], 0
        for tree in waiting:
            if step_rows >= _STEP_ROWS:
                break
            found = tree.next_drawing_node(params.max_tree_depth)
            if found is not None:
                drawn = tree.rng.choice(width, size=k, replace=False)
                drawn.sort()
                cands.append(drawn)
                taken.append((tree, *found))
                step_rows += len(found[1])
        if taken:
            _split_taken(x_rows, ranked, y, params.min_samples_leaf, taken, np.array(cands))
        waiting = [tree for tree in waiting if tree.stack]

    fields = {
        key: list(chain.from_iterable(getattr(tree, key) for tree in trees))
        for key in ("feature", "threshold", "right", "count_easy", "count_hard")
    }
    fields["sizes"] = [len(tree.feature) for tree in trees]
    return fields


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
