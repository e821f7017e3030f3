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
row per tree, refilled a block at a time. `candidates` gathers the words of
every node of a growth step from it in one indexing op and scores them
together; a node with a rejected word is redone a word at a time. The
generators must be numpy's default (PCG64); tests check the sets, and
through the draws that follow them the words consumed, against
`Generator.choice`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# Words a buffer row holds at least; a row reads its generator again only
# when a draw needs more words than it has left.
_BLOCK_WORDS = 512


class WordBuffer:
    """The unread 32-bit words each of a growth's PCG64 generators hands its
    bounded draws: row t holds generator t's, right-aligned from at[t] on."""

    __slots__ = ("rngs", "words", "at")

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

    def take(self, trees: np.ndarray, n: int) -> np.ndarray:
        """The next n words of each of trees (distinct row numbers), as uint32[len(trees), n]."""
        at, width = self.at[trees], self.words.shape[1]
        short = at + n > width
        if short.any():
            for t in trees[short].tolist():
                # an output's low half comes first, then its high half
                rest = self.words[t, self.at[t] :]
                fresh = self.rngs[t].bit_generator.random_raw((width - len(rest)) // 2)
                words = np.concatenate((rest, fresh.astype("<u8", copy=False).view("<u4")))
                self.at[t] = width - len(words)
                self.words[t, self.at[t] :] = words
            at = self.at[trees]
        self.at[trees] = at + n
        return self.words[trees[:, None], at[:, None] + np.arange(n)]


def candidates(words: WordBuffer, trees: np.ndarray, width: int, k: int) -> np.ndarray:
    """Per tree, its generator's next choice(width, k, replace=False), ascending: int64[J, k].

    trees holds distinct rows of words.
    """
    floyd, n_reading, span, limit = _floyd_draws(width, k)
    scaled = np.multiply(words.take(trees, len(span)), span)
    value = np.zeros((len(trees), k), dtype=np.int64)
    value[:, k - n_reading :] = scaled[:, :n_reading] >> 32
    chosen = value.copy()
    for c in range(1, k):
        taken = (chosen[:, :c] == value[:, c : c + 1]).any(axis=1)
        chosen[taken, c] = floyd[c]
    redo = (scaled.astype(np.uint32) < limit).any(axis=1)  # a low half rejects its word
    for r in np.flatnonzero(redo).tolist():
        words.at[trees[r]] -= len(span)
        chosen[r] = _choice_word_by_word(words, trees[r : r + 1], width, k)
    chosen.sort(axis=1)
    return chosen


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
