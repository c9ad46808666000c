"""Tests for the batched record I/O layer (zero-copy block access)."""

import pytest

import numpy as np

from repro.core.records import JoinedPair, JoinedPairs, RObject, SObject
from repro.storage.layout import RecordLayout
from repro.storage.relation import (
    BucketedRFile,
    PairsFile,
    RRelationFile,
    SRelationFile,
    read_pair_block,
)
from repro.storage.segment import MappedSegment, META_CAPACITY, StorageError
from tests.parallel.scalar_oracle import (
    append_objects,
    dereference_many,
    iter_bucket_batches,
    iter_object_batches,
    pack_pairs,
    pack_records,
    read_objects,
    read_pairs,
)


def decode(layout, buffer, make=RObject._make):
    """Records decoded by the layout's columns, as tuples."""
    return [make(map(int, t)) for t in zip(*layout.decode_columns(buffer))]


class TestLayoutBatches:
    def test_record_struct_spans_whole_record(self):
        layout = RecordLayout(128)
        assert layout.np_dtype.itemsize == 128

    def test_pack_unpack_r_batch_roundtrip(self):
        layout = RecordLayout(128)
        objs = [RObject(i, i * 7, i * 11) for i in range(50)]
        buffer = layout.pack_columns(*np.asarray(objs, dtype=np.uint64).T)
        assert len(buffer) == 50 * 128
        assert decode(layout, buffer) == objs

    def test_pack_unpack_s_batch_roundtrip(self):
        layout = RecordLayout(64)
        objs = [SObject(i, i + 1, i + 2) for i in range(17)]
        buffer = pack_records(objs, 64)
        assert decode(layout, buffer, SObject._make) == objs

    def test_batch_matches_scalar_encoding(self):
        layout = RecordLayout(128)
        objs = [RObject(3, 4, 5), RObject(6, 7, 8)]
        cols = np.asarray(objs, dtype=np.uint64).T
        batch = bytes(layout.pack_columns(*cols))
        assert batch == pack_records(objs, 128)

    def test_minimal_record_size_batch(self):
        layout = RecordLayout(24)  # header only, zero padding
        objs = [RObject(1, 2, 3)]
        assert decode(layout, pack_records(objs, 24)) == objs


class TestSegmentBatches:
    def _fill(self, seg, n):
        seg.append_batch(pack_records([RObject(i, i, i) for i in range(n)]))

    def test_append_batch_then_read_batch(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=10) as seg:
            self._fill(seg, 10)
            view = seg.read_batch(2, 3)
            try:
                decoded = decode(seg.layout, view)
            finally:
                view.release()
            assert decoded == [RObject(i, i, i) for i in (2, 3, 4)]

    def test_append_batch_returns_start_index(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=8) as seg:
            assert seg.append_batch(pack_records([RObject(0, 0, 0)])) == 0
            assert seg.append_batch(
                pack_records([RObject(1, 1, 1), RObject(2, 2, 2)])
            ) == 1
            assert len(seg) == 3

    def test_append_batch_overflow_rejected(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=2) as seg:
            blob = pack_records([RObject(i, i, i) for i in range(3)])
            with pytest.raises(StorageError):
                seg.append_batch(blob)
            assert len(seg) == 0

    def test_append_batch_partial_record_rejected(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=4) as seg:
            with pytest.raises(StorageError):
                seg.append_batch(b"x" * 100)

    def test_empty_append_batch_is_noop(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=4) as seg:
            assert seg.append_batch(b"") == 0
            assert len(seg) == 0

    def test_read_batch_out_of_range_rejected(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=4) as seg:
            self._fill(seg, 2)
            with pytest.raises(StorageError):
                seg.read_batch(1, 2)

    def test_iter_batches_covers_everything(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=10) as seg:
            self._fill(seg, 10)
            decoded = []
            for view in seg.iter_batches(3):
                decoded.extend(decode(seg.layout, view))
                view.release()
            assert decoded == [RObject(i, i, i) for i in range(10)]

    def test_batches_visible_after_reopen(self, tmp_path):
        path = tmp_path / "a.seg"
        with MappedSegment.create(path, capacity=5) as seg:
            self._fill(seg, 5)
        with MappedSegment.open(path) as seg:
            view = seg.read_batch(0, 5)
            assert decode(seg.layout, view)[4] == RObject(4, 4, 4)
            view.release()

    def test_record_count_reads_header_without_mapping(self, tmp_path):
        path = tmp_path / "a.seg"
        with MappedSegment.create(path, capacity=5) as seg:
            self._fill(seg, 3)
        assert MappedSegment.record_count(path) == 3

    def test_record_count_rejects_non_segment(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"nope" * 100)
        with pytest.raises(StorageError):
            MappedSegment.record_count(path)
        with pytest.raises(StorageError):
            MappedSegment.record_count(tmp_path / "ghost.seg")


class TestSegmentMeta:
    def test_meta_roundtrip(self, tmp_path):
        path = tmp_path / "a.seg"
        with MappedSegment.create(path, capacity=2) as seg:
            assert seg.read_meta() == b""
            seg.write_meta(b"hello directory")
        with MappedSegment.open(path) as seg:
            assert seg.read_meta() == b"hello directory"

    def test_meta_too_large_rejected(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=2) as seg:
            with pytest.raises(StorageError):
                seg.write_meta(b"x" * (META_CAPACITY + 1))

    def test_meta_does_not_clobber_records(self, tmp_path):
        with MappedSegment.create(tmp_path / "a.seg", capacity=2) as seg:
            record = bytes(range(128)) * 1
            seg.append_batch(record)
            seg.write_meta(b"m" * META_CAPACITY)
            with seg.read_batch(0, 1) as view:
                assert bytes(view) == record


class TestRelationBatches:
    def test_append_many_then_iter_objects(self, tmp_path):
        objs = [RObject(i, i * 2, i * 3) for i in range(100)]
        with RRelationFile.create(tmp_path / "r.seg", 100) as rel:
            append_objects(rel, objs)
            got = [
                RObject(*map(int, t))
                for cols in rel.iter_column_batches(batch_records=7)
                for t in zip(*cols)
            ]
            assert got == objs
            assert next(iter_object_batches(rel, 30)) == objs[:30]

    def test_batched_iter_matches_scalar_gets(self, tmp_path):
        objs = [RObject(i, 99 - i, i) for i in range(25)]
        with RRelationFile.create(tmp_path / "r.seg", 25) as rel:
            append_objects(rel, objs)
            rid, sptr, payload = rel.read_columns(0, 25)
            assert read_objects(rel) == [
                RObject(*map(int, t)) for t in zip(rid, sptr, payload)
            ]

    def test_dereference_many(self, tmp_path):
        objs = [SObject(i, i * 10, i) for i in range(40)]
        with SRelationFile.create(tmp_path / "s.seg", 40) as rel:
            append_objects(rel, objs)
            offsets = [5, 0, 39, 5, 17]
            sid, value = rel.dereference_columns(
                np.asarray(offsets, dtype=np.uint64)
            )
            assert list(zip(sid.tolist(), value.tolist())) == [
                (objs[o].sid, objs[o].value) for o in offsets
            ]
            assert dereference_many(rel, offsets) == [objs[o] for o in offsets]
            empty = rel.dereference_columns(np.empty(0, dtype=np.uint64))
            assert [len(col) for col in empty] == [0, 0]

    def test_dereference_many_out_of_range_rejected(self, tmp_path):
        with SRelationFile.create(tmp_path / "s.seg", 4) as rel:
            append_objects(rel, [SObject(0, 0, 0)])
            with pytest.raises(StorageError):
                rel.dereference_columns(np.asarray([0, 1], dtype=np.uint64))
            with pytest.raises(StorageError):
                dereference_many(rel, [-1])

    def test_segment_closable_after_batch_iteration(self, tmp_path):
        """Views must not leak: a closed-over mapping with exported
        buffers cannot be unmapped."""
        rel = RRelationFile.create(tmp_path / "r.seg", 10)
        append_objects(rel, [RObject(i, i, i) for i in range(10)])
        list(rel.iter_column_batches(batch_records=3))
        list(rel.iter_record_batches(batch_records=3))
        rel.close()  # BufferError here would mean a leaked view


class TestPairsFile:
    def test_pairs_roundtrip(self, tmp_path):
        pairs = [JoinedPair(i, i + 1, i + 2, i + 3) for i in range(30)]
        path = tmp_path / "p.seg"
        with PairsFile.create(path, 30) as pf:
            pf.append_packed(pack_pairs(pairs))
        assert list(JoinedPairs(read_pair_block(path))) == pairs
        assert read_pairs(path) == pairs

    def test_pairs_accepts_plain_tuples(self, tmp_path):
        path = tmp_path / "p.seg"
        with PairsFile.create(path, 2) as pf:
            pf.append_packed(pack_pairs([(1, 2, 3, 4), (5, 6, 7, 8)]))
        loaded = list(JoinedPairs(read_pair_block(path)))
        assert loaded == [JoinedPair(1, 2, 3, 4), JoinedPair(5, 6, 7, 8)]
        assert all(isinstance(p, JoinedPair) for p in loaded)

    def test_open_rejects_wrong_record_size(self, tmp_path):
        path = tmp_path / "r.seg"
        RRelationFile.create(path, 2).close()
        with pytest.raises(StorageError):
            PairsFile.open(path)

    def test_iter_pairs_file_streams_batched(self, tmp_path):
        """The generator form: same pairs as the whole-file read, never
        the whole file materialized at once."""
        import types

        from repro.storage import iter_pairs_file

        pairs = [JoinedPair(i, i + 1, i + 2, i + 3) for i in range(100)]
        path = tmp_path / "p.seg"
        with PairsFile.create(path, 100) as pf:
            pf.append_packed(pack_pairs(pairs))
        stream = iter_pairs_file(path, batch_records=7)
        assert isinstance(stream, types.GeneratorType)
        assert list(stream) == pairs
        # Odd batch sizes must not drop the tail.
        assert list(iter_pairs_file(path, batch_records=33)) == pairs
        # The whole-file form reads the segment in one step, same pairs.
        assert list(JoinedPairs(read_pair_block(path))) == pairs


def write_groups(writer, groups, buckets):
    """One ``write_buckets`` call carrying ``groups`` (bucket -> objects)."""
    writer.write_buckets(
        pack_records(
            [obj for bucket in sorted(groups) for obj in groups[bucket]]
        ),
        [len(groups.get(bucket, ())) for bucket in range(buckets)],
    )


def assert_nothing_published(path):
    assert not path.exists()
    assert not path.with_name(path.name + ".tmp").exists()


class TestBucketedRFile:
    def test_bucket_roundtrip(self, tmp_path):
        path = tmp_path / "b.seg"
        groups = {
            0: [RObject(1, 1, 1)],
            2: [RObject(2, 2, 2), RObject(3, 3, 3)],
            3: [RObject(4, 4, 4)],
        }
        writer = BucketedRFile.create_laid_out(path, [1, 0, 2, 1, 0])
        try:
            write_groups(writer, groups, 5)
        finally:
            writer.close()
        with BucketedRFile.open(path) as reader:
            assert reader.buckets == 5
            assert len(reader) == 4
            for bucket in range(5):
                expected = groups.get(bucket, [])
                got = [
                    obj
                    for batch in iter_bucket_batches(reader, bucket, 2)
                    for obj in batch
                ]
                assert got == expected
                assert reader.bucket_len(bucket) == len(expected)

    def test_buckets_fill_front_to_back_across_writes(self, tmp_path):
        """Writes may arrive in any bucket order; each lands at its
        bucket's cursor, so two flushes publish what one would."""
        path = tmp_path / "b.seg"
        writer = BucketedRFile.create_laid_out(path, [2, 0, 1])
        write_groups(writer, {2: [RObject(5, 5, 5)], 0: [RObject(1, 1, 1)]}, 3)
        write_groups(writer, {0: [RObject(2, 2, 2)]}, 3)
        writer.close()
        with BucketedRFile.open(path) as reader:
            assert reader.read_bucket_columns(0)[0].tolist() == [1, 2]
            assert reader.read_bucket_columns(2)[0].tolist() == [5]

    def test_overfilled_bucket_rejected(self, tmp_path):
        """A share larger than its extent is refused before any byte is
        written, and the file then refuses to publish."""
        path = tmp_path / "b.seg"
        writer = BucketedRFile.create_laid_out(path, [0, 0, 1, 0])
        with pytest.raises(StorageError, match="overfill"):
            write_groups(writer, {2: [RObject(1, 1, 1)] * 2}, 4)
        with pytest.raises(StorageError, match="not exactly filled"):
            writer.close()
        assert_nothing_published(path)

    def test_underfilled_extent_refuses_to_publish(self, tmp_path):
        path = tmp_path / "b.seg"
        writer = BucketedRFile.create_laid_out(path, [2, 1])
        write_groups(writer, {0: [RObject(1, 1, 1)], 1: [RObject(2, 2, 2)]}, 2)
        with pytest.raises(StorageError, match=r"extents \[0\]"):
            writer.close()
        assert_nothing_published(path)

    def test_bucket_out_of_range_rejected(self, tmp_path):
        writer = BucketedRFile.create_laid_out(tmp_path / "b.seg", [1, 1])
        try:
            with pytest.raises(StorageError):
                write_groups(writer, {2: [RObject(1, 1, 1)]}, 3)
        finally:
            writer.abort()

    def test_write_batch_outside_reserved_count_rejected(self, tmp_path):
        segment = MappedSegment.create(tmp_path / "r.seg", 4, 128)
        segment.reserve(2)
        records = pack_records([RObject(1, 1, 1)] * 2)
        try:
            segment.write_batch(0, records)  # exactly the reserved slots
            for index in (-1, 1, 2):
                with pytest.raises(StorageError, match=r"outside \[0, 2\)"):
                    segment.write_batch(index, records)
        finally:
            segment.discard()

    def test_open_plain_segment_rejected(self, tmp_path):
        path = tmp_path / "r.seg"
        RRelationFile.create(path, 2).close()
        with pytest.raises(StorageError, match="no bucket directory"):
            BucketedRFile.open(path)

    def test_too_many_buckets_for_directory_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            BucketedRFile.create_laid_out(tmp_path / "b.seg", [0] * 100_000)
        assert_nothing_published(tmp_path / "b.seg")
