"""Candidate draws: the same sets, from the same words, as Generator.choice."""

import numpy as np
import pytest

from opttriage.forest import draws
from opttriage.forest.draws import WordBuffer, candidates


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
            words = WordBuffer([ours for ours, _ in twins], width, k)
            for _ in range(12):
                got = candidates(words, np.arange(len(twins)))
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
    word = int(WordBuffer([_at_word(index)], 16, 4).take(np.array([0]), 1)[0, 0])
    assert (word * 13) & 0xFFFFFFFF < 9
    ours = [np.random.default_rng(1), _at_word(index), np.random.default_rng(2)]
    theirs = [np.random.default_rng(1), _at_word(index), np.random.default_rng(2)]
    words = WordBuffer(ours, 16, 4)
    for _ in range(3):  # the draws after the rejected word stay in step too
        got = candidates(words, np.arange(3))
        assert got.tolist() == [sorted(rng.choice(16, size=4, replace=False)) for rng in theirs]


def test_the_widest_schema_draws_as_choice_does():
    # 10,000 is the widest schema; numpy draws a population of that size by
    # Floyd's algorithm for every k, here at, just above and far above 1/50 of it
    for k in (200, 201, 5_000):
        ours, theirs = _twins(3, bootstrap=5)
        words = WordBuffer([ours], 10_000, k)
        got = candidates(words, np.array([0]))
        assert got.tolist() == [sorted(theirs.choice(10_000, size=k, replace=False))], k
        assert words.take(np.array([0]), 1)[0, 0] == theirs.integers(0, 2**32, dtype=np.uint32)


def test_only_the_default_generator_is_accepted():
    with pytest.raises(TypeError):
        WordBuffer([np.random.Generator(np.random.MT19937(1))], 16, 4)


def test_gathered_words_match_choice_across_rejections_and_refills(monkeypatch):
    # Tree 1 meets the rejected word of the test above in its third draw,
    # inside a gathered block; 150 draws of 7 words refill every row of the
    # buffer twice. Every set, and the word after the last draw, match.
    index = 143352593 - 14
    ours = [np.random.default_rng(5), _at_word(index), _twins(6, bootstrap=3)[0]]
    theirs = [np.random.default_rng(5), _at_word(index), _twins(6, bootstrap=3)[1]]
    redone = []
    word_by_word = draws._choice_word_by_word
    monkeypatch.setattr(
        draws, "_choice_word_by_word",
        lambda words, tree, *a: redone.append(int(tree[0])) or word_by_word(words, tree, *a),
    )
    words = WordBuffer(ours, 16, 4)
    for draw in range(150):
        got = candidates(words, np.arange(3))
        assert got.tolist() == [sorted(rng.choice(16, size=4, replace=False)) for rng in theirs]
        assert redone == ([1] if draw >= 2 else [])
    next_word = words.take(np.arange(3), 1)[:, 0].tolist()
    assert next_word == [int(rng.integers(0, 2**32, dtype=np.uint32)) for rng in theirs]


def test_only_the_drawing_trees_read_words():
    ours, theirs = _twins(8, bootstrap=1)
    words = WordBuffer([np.random.default_rng(9), ours], 16, 4)
    for _ in range(3):
        got = candidates(words, np.array([1]))
        assert got.tolist() == [sorted(theirs.choice(16, size=4, replace=False))]
    assert candidates(words, np.array([0])).tolist() == [
        sorted(np.random.default_rng(9).choice(16, size=4, replace=False))
    ]


def test_blocks_equal_word_by_word_draws_on_streams_dense_with_rejections(monkeypatch):
    # Every 23rd word each generator hands the buffer is made 0, which Lemire's
    # rule rejects for a bound b+1 that is not a power of two: blocks end
    # early, sets are redone, and rows that draw in no call get new blocks.
    seen = {}  # (buffer, row) -> words its generator has handed it
    refill = WordBuffer._refill

    def refill_with_zeros(words, t):
        unread = words.words.shape[1] - words.at[t]
        refill(words, t)
        fresh = words.words[t, words.at[t] + unread :]
        start = seen.get((words, t), 0)
        fresh[(start + np.arange(len(fresh))) % 23 == 0] = 0
        seen[words, t] = start + len(fresh)

    monkeypatch.setattr(WordBuffer, "_refill", refill_with_zeros)
    pick = np.random.default_rng(0)
    for width, k in ((16, 4), (20, 4), (7, 7), (30, 9)):
        ours, theirs = (WordBuffer([np.random.default_rng(s) for s in range(5)], width, k)
                        for _ in range(2))
        for _ in range(200):
            trees = np.flatnonzero(pick.random(5) < 0.6)
            want = [sorted(draws._choice_word_by_word(theirs, trees[i : i + 1]))
                    for i in range(len(trees))]
            assert candidates(ours, trees).tolist() == want, (width, k)
        assert ours.take(np.arange(5), 3).tolist() == theirs.take(np.arange(5), 3).tolist()


def test_a_take_between_draws_reads_the_words_the_next_set_would_have():
    ours, theirs = _twins(4, bootstrap=2)
    words = WordBuffer([ours], 16, 4)
    for n in (1, 2, 7, 0):
        got = candidates(words, np.array([0]))
        assert got.tolist() == [sorted(theirs.choice(16, size=4, replace=False))]
        taken = words.take(np.array([0]), n)[0].tolist()
        assert taken == theirs.integers(0, 2**32, size=n, dtype=np.uint32).tolist()
