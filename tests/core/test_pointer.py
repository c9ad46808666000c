"""Tests for virtual-pointer arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.pointer import PointerError, PointerMap


class TestEvenPartitions:
    def test_partition_sizes(self):
        pmap = PointerMap(s_objects=100, partitions=4)
        assert [pmap.partition_size(i) for i in range(4)] == [25, 25, 25, 25]

    def test_partition_starts(self):
        pmap = PointerMap(s_objects=100, partitions=4)
        assert [pmap.partition_start(i) for i in range(4)] == [0, 25, 50, 75]

    def test_partition_of_boundaries(self):
        pmap = PointerMap(s_objects=100, partitions=4)
        assert pmap.partition_of(0) == 0
        assert pmap.partition_of(24) == 0
        assert pmap.partition_of(25) == 1
        assert pmap.partition_of(99) == 3

    def test_locate(self):
        pmap = PointerMap(s_objects=100, partitions=4)
        assert pmap.locate(30) == (1, 5)


class TestUnevenPartitions:
    def test_remainder_spread_over_first_partitions(self):
        pmap = PointerMap(s_objects=10, partitions=3)
        assert [pmap.partition_size(i) for i in range(3)] == [4, 3, 3]

    def test_sizes_sum_to_total(self):
        pmap = PointerMap(s_objects=17, partitions=5)
        assert sum(pmap.partition_size(i) for i in range(5)) == 17

    def test_partition_of_crosses_remainder_boundary(self):
        pmap = PointerMap(s_objects=10, partitions=3)
        assert [pmap.partition_of(p) for p in range(10)] == [
            0, 0, 0, 0, 1, 1, 1, 2, 2, 2,
        ]


class TestRoundTrips:
    @given(
        s_objects=st.integers(min_value=1, max_value=5000),
        partitions=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    def test_locate_global_index_roundtrip(self, s_objects, partitions, data):
        pmap = PointerMap(s_objects=s_objects, partitions=partitions)
        sptr = data.draw(st.integers(min_value=0, max_value=s_objects - 1))
        partition, offset = pmap.locate(sptr)
        assert 0 <= partition < partitions
        assert 0 <= offset < pmap.partition_size(partition)
        assert pmap.partition_start(partition) + offset == sptr

    @given(
        s_objects=st.integers(min_value=1, max_value=2000),
        partitions=st.integers(min_value=1, max_value=9),
    )
    def test_partitions_cover_everything_once(self, s_objects, partitions):
        pmap = PointerMap(s_objects=s_objects, partitions=partitions)
        seen = [pmap.partition_of(p) for p in range(s_objects)]
        # Non-decreasing assignment with all partitions' sizes respected.
        assert all(b >= a for a, b in zip(seen, seen[1:]))
        for i in range(partitions):
            assert seen.count(i) == pmap.partition_size(i)


class TestValidation:
    def test_pointer_out_of_range(self):
        pmap = PointerMap(s_objects=10, partitions=2)
        with pytest.raises(PointerError):
            pmap.partition_of(10)
        with pytest.raises(PointerError):
            pmap.partition_of(-1)

    def test_bad_construction(self):
        with pytest.raises(PointerError):
            PointerMap(s_objects=0, partitions=1)
        with pytest.raises(PointerError):
            PointerMap(s_objects=10, partitions=0)

    def test_more_partitions_than_objects(self):
        pmap = PointerMap(s_objects=2, partitions=4)
        assert [pmap.partition_size(i) for i in range(4)] == [1, 1, 0, 0]
        assert pmap.partition_of(1) == 1


class TestBatchArithmetic:
    @given(
        s_objects=st.integers(min_value=1, max_value=500),
        partitions=st.integers(min_value=1, max_value=12),
    )
    def test_locate_many_matches_scalar(self, s_objects, partitions):
        pmap = PointerMap(s_objects=s_objects, partitions=partitions)
        parts, offs = pmap.locate_array(np.arange(s_objects, dtype=np.uint64))
        assert list(zip(parts.tolist(), offs.tolist())) == [
            pmap.locate(p) for p in range(s_objects)
        ]

    @given(
        s_objects=st.integers(min_value=1, max_value=500),
        partitions=st.integers(min_value=1, max_value=12),
    )
    def test_offset_many_matches_scalar(self, s_objects, partitions):
        pmap = PointerMap(s_objects=s_objects, partitions=partitions)
        offs = pmap.offset_array(np.arange(s_objects, dtype=np.uint64))
        assert offs.tolist() == [pmap.offset_of(p) for p in range(s_objects)]

    def test_empty_batches(self):
        pmap = PointerMap(s_objects=10, partitions=3)
        empty = np.empty(0, dtype=np.uint64)
        assert [len(a) for a in pmap.locate_array(empty)] == [0, 0]
        assert len(pmap.offset_array(empty)) == 0

    def test_batch_out_of_range_rejected(self):
        pmap = PointerMap(s_objects=10, partitions=3)
        with pytest.raises(PointerError):
            pmap.locate_array(np.asarray([0, 10], dtype=np.uint64))
        with pytest.raises(PointerError):
            pmap.offset_array(np.asarray([3, 11], dtype=np.uint64))
