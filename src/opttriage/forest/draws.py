"""Candidate features of many nodes at once, word for word numpy's own draws.

A node's candidates are its tree generator's `choice(width, k,
replace=False)`, sorted. For a population of at most 10,000, which
`FeatureSchema` guarantees, numpy draws them by Floyd's algorithm: for
j = width-k .. width-1 an integer in [0, j], kept unless already chosen,
else j itself; then k-1 more draws shuffle the set, which the sort undoes.
Each draw in [0, b] (b > 0) takes 32-bit words from the generator until
Lemire's rule accepts one: the word w gives (w * (b+1)) >> 32 unless the
low half of that product is below 2^32 mod (b+1), a chance under (b+1) in
2^32 (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
2019).

A growth reads the words of all its generators into one `WordBuffer`, a
row per tree. A set with no rejected word reads L words, L fixed by
(width, k), so the sets a row's unread words give are known before they
are asked for. Each row keeps a block of them, M = row // L sets. When a
step finds a tree's block spent, one vectorized pass draws a new block for
every row with less than half a block left, refilling first a row whose
unread words fall short of a block; `candidates` serves a step's sets from
the blocks in one indexing op. Serving a set moves the row's pointer L
words on, so the pointer, `take` and the refills read each generator's
words in the order they would without blocks; only how many of them a row
holds at a time differs. A rejected word ends its block at its set: that
set is redone a word at a time from the pointer, and a new block starts
after it. The generators must be numpy's default (PCG64); tests check the
sets, and through the draws that follow them the words consumed, against
`Generator.choice`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# Words a buffer row holds at least; a row reads its generator again when a
# take needs more words than it has left, or a new block more than a block.
_BLOCK_WORDS = 512

# Rows whose blocks one vectorized pass draws. It bounds the pass's
# temporary arrays (~12 kB a row at k = 4) well below a growth step's own;
# drawing all 125 rows of a 5-fold cross-validation at once raised its
# peak by ~1 MB.
_PASS_ROWS = 16


class WordBuffer:
    """The unread 32-bit words each of a growth's PCG64 generators hands its
    bounded draws: row t holds generator t's, right-aligned from at[t] on.

    Each row also has a block of candidate sets, for the (width, k) in
    drawn_for: the sets its unread words give, one per L of them, in order,
    as int16, which holds every feature of a population of up to 10,000.
    Row t's block is sets[t*M : t*M + M], M = len(sets) // rows; its next
    set is sets[cursor[t]], and sets[block_end[t]] is the first it cannot
    serve. A take moves the pointer past words the block counted on, so it
    empties the block."""

    __slots__ = ("rngs", "words", "at", "drawn_for", "sets", "cursor", "block_end")

    def __init__(self, rngs: Sequence[np.random.Generator], most: int):
        """most is the largest number of words one take asks for."""
        self.rngs = list(rngs)
        width = max(_BLOCK_WORDS, most + 2)
        self.words = np.zeros((len(self.rngs), width), dtype=np.uint32)
        self.at = np.full(len(self.rngs), width, dtype=np.int64)
        for t, rng in enumerate(self.rngs):
            if type(rng.bit_generator) is not np.random.PCG64:
                raise TypeError("candidate draws need numpy's default PCG64 generator")
            state = rng.bit_generator.state  # the unread half of an earlier output comes first
            if state["has_uint32"]:
                self.words[t, -1] = state["uinteger"]
                self.at[t] -= 1
        self.drawn_for = (0, 0)
        self.sets = np.empty((0, 0), dtype=np.int16)
        self.cursor = np.zeros(len(self.rngs), dtype=np.int64)
        self.block_end = np.zeros(len(self.rngs), dtype=np.int64)

    def take(self, trees: np.ndarray, n: int) -> np.ndarray:
        """The next n words of each of trees (distinct row numbers), as uint32[len(trees), n]."""
        at, width = self.at[trees], self.words.shape[1]
        short = at + n > width
        if short.any():
            for t in trees[short].tolist():
                self._refill(t)
            at = self.at[trees]
        self.at[trees] = at + n
        self.block_end[trees] = 0
        return self.words[trees[:, None], at[:, None] + np.arange(n)]

    def _refill(self, t: int) -> None:
        """Move row t's unread words to the front of what it holds and read fresh ones after."""
        width = self.words.shape[1]
        # an output's low half comes first, then its high half
        rest = self.words[t, self.at[t] :]
        fresh = self.rngs[t].bit_generator.random_raw((width - len(rest)) // 2)
        words = np.concatenate((rest, fresh.astype("<u8", copy=False).view("<u4")))
        self.at[t] = width - len(words)
        self.words[t, self.at[t] :] = words


def candidates(words: WordBuffer, trees: np.ndarray, width: int, k: int) -> np.ndarray:
    """Per tree, its generator's next choice(width, k, replace=False), ascending: int64[J, k].

    trees holds distinct rows of words.
    """
    n_words = len(_floyd_draws(width, k)[2])
    if not n_words:  # choice(1, 1) reads no word
        return np.zeros((len(trees), k), dtype=np.int64)
    if words.drawn_for != (width, k):
        words.drawn_for = (width, k)
        per_row = words.words.shape[1] // n_words
        words.sets = np.empty((len(words.rngs) * per_row, k), dtype=np.int16)
        words.cursor = np.arange(len(words.rngs)) * per_row
        words.block_end = words.cursor.copy()
    cursor = words.cursor[trees]
    stale = (cursor >= words.block_end[trees]).nonzero()[0]
    if len(stale):  # new blocks for every row with less than half a block left
        per_row = len(words.sets) // len(words.rngs)
        renew = (2 * (words.block_end - words.cursor) < per_row).nonzero()[0]
        for a in range(0, len(renew), _PASS_ROWS):
            _draw_blocks(words, renew[a : a + _PASS_ROWS], width, k)
        cursor = words.cursor[trees]
        stale = (cursor >= words.block_end[trees]).nonzero()[0]  # a set with a rejected word
    chosen = words.sets.take(cursor, axis=0).astype(np.int64)
    chosen.sort(axis=1)
    words.cursor[trees] = cursor + 1
    words.at[trees] += n_words
    for r in stale.tolist():
        words.at[trees[r]] -= n_words
        chosen[r] = sorted(_choice_word_by_word(words, trees[r : r + 1], width, k))
    return chosen


def _draw_blocks(words: WordBuffer, trees: np.ndarray, width: int, k: int) -> None:
    """Fill the blocks of trees from their pointers on, refilling first a row
    whose unread words do not fill a block."""
    floyd, n_reading, span, limit = _floyd_draws(width, k)
    n_words, row = len(span), words.words.shape[1]
    per_row = len(words.sets) // len(words.rngs)
    for t in trees[words.at[trees] + per_row * n_words > row].tolist():
        words._refill(t)
    at = words.at[trees]
    # Word c of every set is row c. The sets past the end of a row read the
    # next row's words, or the buffer's last, and block_end leaves them out.
    first = ((trees * row + at)[:, None] + np.arange(0, per_row * n_words, n_words)).ravel()
    scaled = words.words.take(first + np.arange(n_words)[:, None], mode="clip") * span[:, None]
    chosen = np.zeros((k, len(first)), dtype=words.sets.dtype)
    np.right_shift(scaled[:n_reading], 32, out=chosen[k - n_reading :], casting="unsafe")
    for c in range(1, k):  # Floyd's rule: a value chosen before gives way to j
        np.putmask(chosen[c], (chosen[:c] == chosen[c]).any(axis=0), floyd[c])
    words.sets.reshape(-1, per_row, k)[trees] = chosen.T.reshape(len(trees), per_row, k)
    # a low half below the limit rejects its word, and ends the block at its set
    clean = np.zeros((len(trees), per_row + 1), dtype=bool)
    clean[:, :per_row] = np.logical_and.reduce(
        scaled.astype(np.uint32) >= limit[:, None], axis=0
    ).reshape(len(trees), per_row)
    base = trees * per_row
    words.cursor[trees] = base
    words.block_end[trees] = base + np.minimum((row - at) // n_words, clean.argmin(axis=1))


@lru_cache(maxsize=8)
def _floyd_draws(width: int, k: int) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """The upper bound of each of Floyd's draws, how many of them read a word, and
    per word read, b+1 and the low half below which Lemire's rule rejects it."""
    floyd = np.arange(width - k, width)
    reading = floyd[floyd > 0]  # a draw in [0, 0] reads no word
    span = np.concatenate((reading, np.arange(k - 1, 0, -1))).astype(np.uint64) + 1
    return floyd, len(reading), span, (1 << 32) % span


def _choice_word_by_word(words: WordBuffer, tree: np.ndarray, width: int, k: int) -> list[int]:
    chosen: list[int] = []
    for j in range(width - k, width):
        value = _bounded(words, tree, j)
        chosen.append(j if value in chosen else value)
    for i in range(k - 1, 0, -1):
        _bounded(words, tree, i)
    return chosen


def _bounded(words: WordBuffer, tree: np.ndarray, bound: int) -> int:
    """An integer in [0, bound] by Lemire's rule, reading words until one is accepted."""
    if bound == 0:
        return 0
    span = bound + 1
    threshold = (1 << 32) % span
    while True:
        scaled = int(words.take(tree, 1)[0, 0]) * span
        if scaled & 0xFFFFFFFF >= threshold:
            return scaled >> 32
