"""Batched ``default_rng`` seeding against numpy's own, key by key.

:func:`repro.fl.streams.seed_streams` reimplements ``SeedSequence``'s
pool hash and PCG64's ``setseq`` step over arrays. The oracle is
``np.random.default_rng(key)``: its ``bit_generator.state`` and its first
``random()`` double, for every row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.streams import seed_streams

# one- and two-word ints, and the word boundaries themselves
_PART = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)


def oracle(key):
    rng = np.random.default_rng(key)
    state = rng.bit_generator.state["state"]
    return (state["state"], state["inc"]), rng.random()


class TestSeedStreams:
    @settings(max_examples=300, deadline=None)
    @given(key=st.lists(_PART, min_size=1, max_size=6))
    def test_one_key_is_default_rng(self, key):
        """Up to 12 entropy words: past the 4-word pool for long keys."""
        streams = seed_streams(*key)
        state, first = oracle(tuple(key))
        assert streams.states() == [state]
        assert streams.first_random().tolist() == [first]

    @settings(max_examples=100, deadline=None)
    @given(
        prefix=st.lists(_PART, max_size=3),
        column=st.lists(_PART, min_size=1, max_size=12),
        suffix=st.lists(_PART, max_size=2),
    )
    def test_rows_of_mixed_lengths(self, prefix, column, suffix):
        """An array part whose rows span one or two words: each row is
        the stream of its own int tuple."""
        streams = seed_streams(*prefix, np.array(column, dtype=np.uint64), *suffix)
        states, firsts = streams.states(), streams.first_random().tolist()
        for row, value in enumerate(column):
            assert (states[row], firsts[row]) == oracle((*prefix, value, *suffix))

    @pytest.mark.parametrize("big", [2**64, 2**70, 2**200 + 5])
    def test_ints_past_64_bits(self, big):
        starts = np.arange(0, 3 * 4096, 4096)
        streams = seed_streams(0x4E57, big, 3, starts)
        for row, start in enumerate(starts.tolist()):
            assert streams.states()[row] == oracle((0x4E57, big, 3, start))[0]

    def test_int64_rows_match_uint64_rows(self):
        ids = np.array([0, 5, 2**40, 2**63 - 1])
        a = seed_streams(0xA1B2, 1, 7, ids)
        b = seed_streams(0xA1B2, 1, 7, ids.astype(np.uint64))
        assert a.states() == b.states()

    @pytest.mark.parametrize("key", [(-1,), (1, np.array([3, -2]))])
    def test_negative_keys_rejected(self, key):
        with pytest.raises(ValueError):
            seed_streams(*key)

    def test_float_keys_rejected(self):
        with pytest.raises(TypeError):
            seed_streams(1, np.array([0.5]))
