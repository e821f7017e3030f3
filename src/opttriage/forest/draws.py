"""Candidate features of many nodes at once, word for word numpy's own draws.

A node's candidates are its tree generator's `choice(width, k,
replace=False)`, sorted. For a population of at most 10,000 numpy draws
them by Floyd's algorithm: for j = width-k .. width-1 an integer in
[0, j], kept unless already chosen, else j itself; then k-1 more draws
shuffle the set, which the sort undoes. Each draw in [0, b] (b > 0) takes
32-bit words from the generator until Lemire's rule accepts one: the word
w gives (w * (b+1)) >> 32 unless the low half of that product is below
2^32 mod (b+1), a chance under (b+1) in 2^32 (Lemire, "Fast Random Integer
Generation in an Interval", ACM TOMACS 2019).

`candidates` reads the words of every node of a growth step into one
array and scores them together; a node with a rejected word is redone a
word at a time. On a 2-CPU VM a call costs about 50 µs plus under 2 µs a
node from 50 nodes up, where `Generator.choice` costs about 11 µs a node.
The generators must be numpy's default (PCG64); tests check the sets, and
through the draws that follow them the words consumed, against
`Generator.choice`.
"""

from __future__ import annotations

import numpy as np

# numpy draws from a wider population by a partial shuffle instead.
_FLOYD_MAX_WIDTH = 10_000
# Generator outputs a stream reads at a time, two 32-bit words each.
_BLOCK = 64


class WordStream:
    """The 32-bit words a PCG64 generator hands its bounded draws, read ahead in blocks."""

    __slots__ = ("rng", "words", "at")

    def __init__(self, rng: np.random.Generator):
        if type(rng.bit_generator) is not np.random.PCG64:
            raise TypeError("candidate draws need numpy's default PCG64 generator")
        self.rng = rng
        state = rng.bit_generator.state  # the unread half of an earlier output comes first
        self.words = np.array([state["uinteger"]] if state["has_uint32"] else [], dtype=np.uint32)
        self.at = 0

    def take(self, n: int) -> np.ndarray:
        """The next n words, as uint32."""
        if self.at + n > len(self.words):
            raw = self.rng.bit_generator.random_raw(max(_BLOCK, n))
            # an output's low half comes first, then its high half
            fresh = raw.astype("<u8", copy=False).view("<u4")
            self.words = np.concatenate((self.words[self.at :], fresh))
            self.at = 0
        self.at += n
        return self.words[self.at - n : self.at]


def candidates(streams: list[WordStream], width: int, k: int) -> np.ndarray:
    """Per stream, its generator's next choice(width, k, replace=False), ascending: int64[J, k].

    A stream appears at most once in a call.
    """
    if width > _FLOYD_MAX_WIDTH:
        return np.sort([s.rng.choice(width, size=k, replace=False) for s in streams], axis=1)
    floyd = np.arange(width - k, width)  # the upper bound of each of Floyd's draws
    reading = floyd[floyd > 0]  # a draw in [0, 0] reads no word
    bounds = np.concatenate((reading, np.arange(k - 1, 0, -1))).astype(np.uint64)
    words = np.array([s.take(len(bounds)) for s in streams], dtype=np.uint64)
    scaled = words.reshape(len(streams), len(bounds)) * (bounds + 1)
    value = np.zeros((len(streams), k), dtype=np.int64)
    value[:, k - len(reading) :] = scaled[:, : len(reading)] >> 32
    chosen = value.copy()
    for c in range(1, k):
        taken = (chosen[:, :c] == value[:, c : c + 1]).any(axis=1)
        chosen[taken, c] = floyd[c]
    rejected = ((scaled & 0xFFFFFFFF) < (1 << 32) % (bounds + 1)).any(axis=1)
    for r in np.flatnonzero(rejected).tolist():
        streams[r].at -= len(bounds)
        chosen[r] = _choice_word_by_word(streams[r], width, k)
    chosen.sort(axis=1)
    return chosen


def _choice_word_by_word(stream: WordStream, width: int, k: int) -> list[int]:
    chosen: list[int] = []
    for j in range(width - k, width):
        value = _bounded(stream, j)
        chosen.append(j if value in chosen else value)
    for i in range(k - 1, 0, -1):
        _bounded(stream, i)
    return chosen


def _bounded(stream: WordStream, bound: int) -> int:
    """An integer in [0, bound] by Lemire's rule, reading words until one is accepted."""
    if bound == 0:
        return 0
    span = bound + 1
    threshold = (1 << 32) % span
    while True:
        scaled = int(stream.take(1)[0]) * span
        if scaled & 0xFFFFFFFF >= threshold:
            return scaled >> 32
