"""Candidate draws: the same sets, from the same words, as Generator.choice."""

import numpy as np
import pytest

from opttriage.forest.draws import WordStream, candidates


def _twins(seed: int, bootstrap: int):
    """Two generators in the same state, each after a bootstrap-sized first draw."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 1000, size=bootstrap)  # an odd size leaves half an output unread
    return pair


def test_candidates_equal_choice_set_for_set():
    for width in range(1, 25):
        for k in range(1, width + 1):
            twins = [_twins(seed, bootstrap=7 + seed) for seed in range(4)]
            streams = [WordStream(ours) for ours, _ in twins]
            for _ in range(12):
                got = candidates(streams, width, k)
                want = [sorted(theirs.choice(width, size=k, replace=False)) for _, theirs in twins]
                assert got.tolist() == want, (width, k)


def _at_word(index: int) -> np.random.Generator:
    """default_rng(0) whose next 32-bit word is word `index` of its stream."""
    rng = np.random.default_rng(0)
    rng.bit_generator.advance(index // 2)
    if index % 2:
        high = int(rng.bit_generator.random_raw()) >> 32
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, high
        rng.bit_generator.state = state
    return rng


def test_a_rejected_word_is_drawn_again():
    # Word 143352593 of default_rng(0)'s stream times 13 leaves a low half
    # below 2**32 % 13 == 9, so choice(16, 4)'s first draw, in [0, 12],
    # rejects it and reads the next word.
    index = 143352593
    word = int(WordStream(_at_word(index)).take(1)[0])
    assert (word * 13) & 0xFFFFFFFF < 9
    ours = [np.random.default_rng(1), _at_word(index), np.random.default_rng(2)]
    theirs = [np.random.default_rng(1), _at_word(index), np.random.default_rng(2)]
    streams = [WordStream(rng) for rng in ours]
    for _ in range(3):  # the draws after the rejected word stay in step too
        got = candidates(streams, 16, 4)
        assert got.tolist() == [sorted(rng.choice(16, size=4, replace=False)) for rng in theirs]


def test_a_population_above_ten_thousand_uses_choice_itself():
    # numpy draws these by a partial shuffle, not by Floyd's algorithm
    ours, theirs = _twins(3, bootstrap=5)
    got = candidates([WordStream(ours)], 10_001, 300)
    assert got.tolist() == [sorted(theirs.choice(10_001, size=300, replace=False))]


def test_only_the_default_generator_is_accepted():
    with pytest.raises(TypeError):
        WordStream(np.random.Generator(np.random.MT19937(1)))
