"""Candidate features of many nodes at once, the sets numpy's own choice() draws.

A node's candidates are its tree generator's `choice(width, k,
replace=False)`, sorted. For a population of at most 10,000, which
`FeatureSchema` guarantees, numpy draws them by Floyd's algorithm: for
j = width-k .. width-1 an integer in [0, j], kept unless already chosen,
else j itself; then k-1 integers in [0, i], i = k-1 .. 1, shuffle the set,
which the sort undoes. `Generator.integers` with an array of bounds and
uint32 output draws each integer as choice() does, by Lemire's rule
(Lemire, ACM TOMACS 2019), from the same words, rejected ones included.

So one `integers` call draws a tree a block of sets, and Floyd's rule
runs on the blocks of several trees at once. A tree draws its first block
when the blocks are made and its next once it has served the last, so
its generator hands out its words in choice()'s order, only read ahead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Draws one block holds at most. An integers() call costs about as much as
# 700 draws (~11 µs, plus ~16 ns a draw, on a 2-core Xeon), so blocks are
# long: at k = 4, 2048 draws give each tree of a 2000-row fit one block of
# 292 sets, where 512 took three times the calls and twice the draw time.
_BLOCK_DRAWS = 2048

# Trees whose blocks one pass draws. It bounds the pass's temporary arrays
# (~20 kB a tree) well below a growth step's own.
_PASS_TREES = 16


class CandidateBlocks:
    """Per tree of a growth, its generator and the next choice(width, k) sets
    it draws: sets[t], int16, which holds every feature of a population of
    up to 10,000. Tree t's next set is sets[t, cursor[t]]."""

    __slots__ = ("rngs", "floyd", "bounds", "sets", "cursor")

    def __init__(self, rngs: Sequence[np.random.Generator], width: int, k: int, most_sets: int):
        """most_sets caps a block: no tree draws more sets than that."""
        self.rngs = list(rngs)
        self.floyd = np.arange(width - k, width)
        # one set's exclusive bounds: Floyd's k draws, then the shuffle's k - 1
        one_set = np.concatenate((self.floyd, np.arange(k - 1, 0, -1))) + 1
        per_tree = max(1, min(most_sets, _BLOCK_DRAWS // len(one_set)))
        self.bounds = np.tile(one_set.astype(np.uint32), per_tree)
        self.sets = np.empty((len(self.rngs), per_tree, k), dtype=np.int16)
        self.cursor = np.zeros(len(self.rngs), dtype=np.int64)
        _draw_blocks(self, np.arange(len(self.rngs)))  # every tree's first block


def candidates(blocks: CandidateBlocks, trees: np.ndarray) -> np.ndarray:
    """Per tree of trees (distinct), its generator's next choice(width, k,
    replace=False), ascending: int64[J, k]."""
    _draw_blocks(blocks, trees[blocks.cursor[trees] == blocks.sets.shape[1]])
    cursor = blocks.cursor[trees]
    chosen = blocks.sets[trees, cursor].astype(np.int64)
    chosen.sort(axis=1)
    blocks.cursor[trees] = cursor + 1
    return chosen


def _draw_blocks(blocks: CandidateBlocks, trees: np.ndarray) -> None:
    """A new block for each of trees, from one integers() call of its generator;
    Floyd's rule runs on the blocks of _PASS_TREES trees at a time."""
    per_tree, k = blocks.sets.shape[1:]
    for a in range(0, len(trees), _PASS_TREES):
        some = trees[a : a + _PASS_TREES]
        # a uint32 low, as the bounds are, spares integers() half its fixed cost
        drawn = np.stack([blocks.rngs[t].integers(np.uint32(0), blocks.bounds, dtype=np.uint32)
                          for t in some.tolist()])
        chosen = drawn.reshape(len(some) * per_tree, -1)[:, :k].T.copy()  # a row per Floyd draw
        for c in range(1, k):  # Floyd's rule: a value chosen before gives way to j
            np.putmask(chosen[c], (chosen[:c] == chosen[c]).any(axis=0), blocks.floyd[c])
        blocks.sets[some] = chosen.T.reshape(len(some), per_tree, k)
    blocks.cursor[trees] = 0
