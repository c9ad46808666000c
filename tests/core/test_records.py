"""Tests for record types."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.records import (
    JoinedPair,
    JoinedPairs,
    RObject,
    SObject,
    join_pair,
)


class TestRecords:
    def test_r_object_fields(self):
        r = RObject(rid=1, sptr=42, payload=7)
        assert r.rid == 1 and r.sptr == 42 and r.payload == 7

    def test_records_are_hashable_tuples(self):
        assert {RObject(1, 2, 3), RObject(1, 2, 3)} == {RObject(1, 2, 3)}

    def test_join_pair_combines_fields(self):
        r = RObject(rid=9, sptr=4, payload=100)
        s = SObject(sid=4, value=55, payload=200)
        pair = join_pair(r, s)
        assert pair == JoinedPair(rid=9, sid=4, r_payload=100, s_value=55)


U64_MAX = 2**64 - 1

# Few distinct cell values, so duplicate rows are common, with both ends
# of the u64 range among them.
cells = st.sampled_from([0, 1, 2, 2**63, U64_MAX])
blocks = st.lists(st.tuples(cells, cells, cells, cells), max_size=200).map(
    lambda rows: np.array(rows, dtype=np.uint64).reshape(-1, 4)
)


class TestJoinedPairs:
    @given(block=blocks, data=st.data())
    def test_is_the_list_of_joined_pairs_it_replaces(self, block, data):
        pairs = JoinedPairs(block)
        boxed = list(map(JoinedPair._make, block.tolist()))
        assert len(pairs) == len(boxed)
        assert list(pairs) == boxed
        assert all(type(pair) is JoinedPair for pair in pairs)
        assert pairs == boxed and boxed == pairs
        assert pairs == JoinedPairs(block.copy())
        assert sorted(pairs) == sorted(boxed)
        assert Counter(pairs) == Counter(boxed)
        piece = data.draw(st.slices(len(boxed)))
        assert isinstance(pairs[piece], JoinedPairs)
        assert pairs[piece] == boxed[piece]
        if boxed:
            index = data.draw(st.integers(-len(boxed), len(boxed) - 1))
            assert pairs[index] == boxed[index]
            assert pairs[-1] == boxed[-1]
            flipped = block.copy()
            flipped[index % len(boxed), data.draw(st.integers(0, 3))] ^= np.uint64(1)
            assert pairs != JoinedPairs(flipped)
            assert pairs != list(JoinedPairs(flipped))
            assert list(JoinedPairs(flipped)) != pairs
            assert pairs != boxed[:-1] and boxed[:-1] != pairs

    def test_empty_is_first_class(self):
        for empty in (JoinedPairs(), JoinedPairs(np.empty((0, 4), np.uint64))):
            assert len(empty) == 0 and empty.columns.shape == (0, 4)
            assert list(empty) == [] and empty == [] and empty == JoinedPairs()
            with pytest.raises(IndexError):
                empty[0]

    def test_values_past_int64_come_back_as_non_negative_ints(self):
        pair = JoinedPairs([(U64_MAX, 2**63, 0, 1)])[0]
        assert pair == JoinedPair(U64_MAX, 2**63, 0, 1)
        assert all(type(value) is int for value in pair)

    def test_immutable_and_unhashable_like_the_workload_columns(self):
        block = np.arange(8, dtype=np.uint64).reshape(2, 4)
        pairs = JoinedPairs(block)
        assert not pairs.columns.flags.writeable
        with pytest.raises(ValueError):
            pairs.columns[0, 0] = 9
        with pytest.raises(TypeError):
            hash(pairs)
        assert block.flags.writeable  # the caller's array is left as it was
