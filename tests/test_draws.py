"""Candidate draws: the same sets, from the same words, as Generator.choice."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opttriage.forest.draws import CandidateBlocks, candidates

_BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def _twins(seed: int, bootstrap: int, bit_generator=np.random.PCG64):
    """Two generators in the same state, each after a bootstrap-sized first draw."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 1000, size=bootstrap)  # an odd size leaves half an output unread
    return pair


def _choices(rngs, width: int, k: int) -> list[list[int]]:
    return [sorted(rng.choice(width, size=k, replace=False)) for rng in rngs]


def test_candidates_equal_choice_set_for_set():
    for width in range(1, 25):
        for k in range(1, width + 1):
            ours, theirs = zip(*(_twins(seed, bootstrap=7 + seed) for seed in range(4)))
            blocks = CandidateBlocks(ours, width, k, most_sets=1000)
            for _ in range(12):
                got = candidates(blocks, np.arange(4))
                assert got.tolist() == _choices(theirs, width, k), (width, k)


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
    word = int(_at_word(index).integers(0, 2**32, dtype=np.uint32))
    assert (word * 13) & 0xFFFFFFFF < 9
    ours = [np.random.default_rng(1), _at_word(index), np.random.default_rng(2)]
    theirs = [np.random.default_rng(1), _at_word(index), np.random.default_rng(2)]
    blocks = CandidateBlocks(ours, 16, 4, most_sets=1000)
    for _ in range(3):  # the draws after the rejected word stay in step too
        assert candidates(blocks, np.arange(3)).tolist() == _choices(theirs, 16, 4)


def test_the_widest_schema_draws_as_choice_does():
    # 10,000 is the widest schema; numpy draws a population of that size by
    # Floyd's algorithm for every k, here at, just above and far above 1/50 of it
    for k in (200, 201, 5_000):
        ours, theirs = _twins(3, bootstrap=5)
        got = candidates(CandidateBlocks([ours], 10_000, k, most_sets=1000), np.array([0]))
        assert got.tolist() == _choices([theirs], 10_000, k), k


def test_other_bit_generators_draw_what_their_choice_draws():
    for bit_generator in _BIT_GENERATORS[1:]:
        ours, theirs = zip(*(_twins(seed, 3 + seed, bit_generator) for seed in range(3)))
        blocks = CandidateBlocks(ours, 20, 5, most_sets=1000)
        for _ in range(40):
            got = candidates(blocks, np.arange(3))
            assert got.tolist() == _choices(theirs, 20, 5), bit_generator


def test_gathered_words_match_choice_across_rejections_and_refills():
    # Tree 1 meets the rejected word of the test above in its third draw,
    # inside a block; blocks of 5 sets make each tree draw 30 of them.
    index = 143352593 - 14
    ours = [np.random.default_rng(5), _at_word(index), _twins(6, bootstrap=3)[0]]
    theirs = [np.random.default_rng(5), _at_word(index), _twins(6, bootstrap=3)[1]]
    blocks = CandidateBlocks(ours, 16, 4, most_sets=5)
    for _ in range(150):
        assert candidates(blocks, np.arange(3)).tolist() == _choices(theirs, 16, 4)


def test_only_the_drawing_trees_read_words():
    ours, theirs = _twins(8, bootstrap=1)
    blocks = CandidateBlocks([np.random.default_rng(9), ours], 16, 4, most_sets=1000)
    for _ in range(3):
        assert candidates(blocks, np.array([1])).tolist() == _choices([theirs], 16, 4)
    assert candidates(blocks, np.array([0])).tolist() == _choices([np.random.default_rng(9)], 16, 4)


@st.composite
def _draw_plans(draw):
    width = draw(st.one_of(st.integers(1, 40), st.integers(1, 10_000)))
    k = draw(st.integers(1, min(width, 120)))
    n_trees = draw(st.integers(1, 5))
    calls = draw(st.lists(st.lists(st.booleans(), min_size=n_trees, max_size=n_trees),
                          min_size=1, max_size=25))
    return width, k, n_trees, calls


@settings(max_examples=100, deadline=None)
@given(
    plan=_draw_plans(),
    bit_generator=st.sampled_from(_BIT_GENERATORS),
    bootstrap=st.integers(0, 9),
    most_sets=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_set_equals_its_twins_choice(plan, bit_generator, bootstrap, most_sets, seed):
    width, k, n_trees, calls = plan
    ours, theirs = zip(*(_twins(seed + t, bootstrap, bit_generator) for t in range(n_trees)))
    blocks = CandidateBlocks(ours, width, k, most_sets)
    for drawing in calls:
        trees = np.flatnonzero(drawing)
        want = _choices([theirs[t] for t in trees.tolist()], width, k)
        assert candidates(blocks, trees).tolist() == want
