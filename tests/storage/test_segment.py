"""Tests for the real mmap-backed segments."""

import numpy as np
import pytest

from repro.storage.layout import LayoutError, RecordLayout
from repro.storage.segment import (
    MappedSegment,
    StorageError,
    timed_delete_map,
    timed_new_map,
    timed_open_map,
)
from tests.parallel.scalar_oracle import pack_records


RECORD = bytes(range(128))


def read(seg, index, count=1):
    """Copy ``count`` records at ``index`` out of the mapping."""
    with seg.read_batch(index, count) as view:
        return bytes(view)


class TestRecordLayout:
    def test_r_roundtrip(self):
        layout = RecordLayout(128)
        cols = [np.asarray([7], dtype=np.uint64),
                np.asarray([42], dtype=np.uint64),
                np.asarray([99], dtype=np.uint64)]
        decoded = layout.decode_columns(layout.pack_columns(*cols))
        assert [int(col[0]) for col in decoded] == [7, 42, 99]

    def test_s_roundtrip(self):
        layout = RecordLayout(64)
        packed = layout.pack_columns([3], [12], [5])
        assert bytes(packed) == pack_records([(3, 12, 5)], 64)
        assert [int(c[0]) for c in layout.decode_columns(packed)] == [3, 12, 5]

    def test_record_is_exactly_sized(self):
        layout = RecordLayout(128)
        assert len(layout.pack_columns([1], [2], [3])) == 128
        assert layout.np_dtype.itemsize == 128

    def test_rejects_too_small_record(self):
        with pytest.raises(LayoutError):
            RecordLayout(8)


class TestMappedSegment:
    def test_create_write_read(self, tmp_path):
        path = tmp_path / "a.seg"
        with MappedSegment.create(path, capacity=10) as seg:
            idx = seg.append_batch(b"x" * 128)
            assert idx == 0
            assert read(seg, 0) == b"x" * 128

    def test_data_persists_across_reopen(self, tmp_path):
        path = tmp_path / "a.seg"
        with MappedSegment.create(path, capacity=4) as seg:
            seg.append_batch(RECORD)
        with MappedSegment.open(path) as seg:
            assert len(seg) == 1
            assert read(seg, 0) == RECORD

    def test_create_over_existing_rejected(self, tmp_path):
        path = tmp_path / "a.seg"
        MappedSegment.create(path, capacity=1).close()
        with pytest.raises(StorageError):
            MappedSegment.create(path, capacity=1)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            MappedSegment.open(tmp_path / "ghost.seg")

    def test_open_non_segment_rejected(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"not a segment" * 1000)
        with pytest.raises(StorageError):
            MappedSegment.open(path)

    def test_append_beyond_capacity_rejected(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=1) as seg:
            seg.append_batch(b"x" * 128)
            with pytest.raises(StorageError):
                seg.append_batch(b"y" * 128)

    def test_wrong_record_size_rejected(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=2) as seg:
            seg.reserve(1)
            with pytest.raises(StorageError):
                seg.write_batch(0, b"short")

    def test_read_unwritten_rejected(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=2) as seg:
            with pytest.raises(StorageError):
                seg.read_batch(0, 1)

    def test_write_at_next_slot_extends_count(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=8) as seg:
            assert seg.append_batch(b"z" * 128) == 0
            assert seg.append_batch(b"y" * 128) == 1
            assert len(seg) == 2

    def test_sparse_write_past_count_rejected(self, tmp_path):
        """A write that jumps past the count would leave garbage records
        that a reader would then decode — rejected outright."""
        with MappedSegment.create(tmp_path / "a.seg", capacity=8) as seg:
            with pytest.raises(StorageError):
                seg.write_batch(5, b"z" * 128)
            assert len(seg) == 0

    def test_reserve_declares_slots_valid(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=8) as seg:
            seg.reserve(6)
            seg.write_batch(5, b"z" * 128)
            assert len(seg) == 6
            assert read(seg, 3) == b"\x00" * 128
            assert read(seg, 5) == b"z" * 128

    def test_reserve_beyond_capacity_rejected(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=4) as seg:
            with pytest.raises(StorageError):
                seg.reserve(5)

    def test_reserve_never_shrinks(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=4) as seg:
            seg.append_batch(b"x" * 128)
            seg.reserve(0)
            assert len(seg) == 1

    def test_use_after_close_rejected(self, tmp_path):
        seg = MappedSegment.create(tmp_path / "a.seg", capacity=1)
        seg.close()
        with pytest.raises(StorageError):
            seg.read_batch(0, 0)
        with pytest.raises(StorageError):
            seg.append_batch(RECORD)

    def test_close_idempotent(self, tmp_path):
        seg = MappedSegment.create(tmp_path / "a.seg", capacity=1)
        seg.close()
        seg.close()

    def test_delete_removes_file(self, tmp_path):
        path = tmp_path / "a.seg"
        MappedSegment.create(path, capacity=1).close()
        MappedSegment.delete(path)
        assert not path.exists()

    def test_delete_missing_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            MappedSegment.delete(tmp_path / "ghost.seg")

    def test_iter_records(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=3) as seg:
            seg.append_batch(b"".join(bytes([i]) * 128 for i in range(3)))
            firsts = []
            for view in seg.iter_batches(1):
                with view:
                    firsts.append(view[0])
            assert firsts == [0, 1, 2]

    def test_zero_capacity_segment(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=0) as seg:
            assert len(seg) == 0


class TestTimedHelpers:
    def test_timed_new_open_delete(self, tmp_path):
        path = tmp_path / "t.seg"
        seg, new_ms = timed_new_map(path, capacity=100)
        seg.close()
        assert new_ms >= 0.0
        seg, open_ms = timed_open_map(path)
        seg.close()
        assert open_ms >= 0.0
        delete_ms = timed_delete_map(path)
        assert delete_ms >= 0.0
        assert not path.exists()
