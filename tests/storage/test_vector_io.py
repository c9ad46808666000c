"""Unit equivalence of the columnar storage primitives against the
oracle's per-object readers and reference packer: the byte- and
value-level contracts the vectorized kernels build on."""

import pytest

np = pytest.importorskip("numpy")

from repro.core.pointer import PointerMap
from repro.parallel.engine.task import PairSink
from repro.storage.layout import RecordLayout
from repro.storage.relation import (
    BucketedRFile,
    RRelationFile,
    SRelationFile,
)
from repro.core.records import RObject, SObject
from tests.parallel.scalar_oracle import (
    ScalarPairSink,
    append_objects,
    dereference_many,
    iter_bucket_batches,
    pack_records,
    read_objects,
)

RECORDS = [(i * 7 + 1, (i * 13) % 97, i * 31 + 5) for i in range(97)]


@pytest.fixture(params=[128, 64])
def layout(request):
    return RecordLayout(request.param)


class TestLayoutColumns:
    def test_pack_columns_matches_pack_batch(self, layout):
        cols = np.asarray(RECORDS, dtype=np.uint64)
        packed = layout.pack_columns(cols[:, 0], cols[:, 1], cols[:, 2])
        assert bytes(packed) == pack_records(RECORDS, layout.record_bytes)

    def test_decode_columns_round_trips(self, layout):
        blob = pack_records(RECORDS, layout.record_bytes)
        a, b, c = layout.decode_columns(blob)
        assert list(zip(a.tolist(), b.tolist(), c.tolist())) == RECORDS

    def test_decode_columns_of_empty_buffer(self, layout):
        a, b, c = layout.decode_columns(b"")
        assert len(a) == len(b) == len(c) == 0

    def test_decode_columns_copies_even_single_records(self, layout):
        """Regression: a 1-element strided field view counts as
        contiguous, so a non-copying decode would keep the mapped buffer
        exported and make the segment unclosable."""
        blob = bytearray(pack_records(RECORDS[:1], layout.record_bytes))
        with memoryview(blob) as view:
            a, b, c = layout.decode_columns(view)
        # The view is released; the columns must still be readable.
        assert (int(a[0]), int(b[0]), int(c[0])) == RECORDS[0]


class TestPointerColumns:
    @pytest.fixture
    def pmap(self):
        return PointerMap(s_objects=1021, partitions=4)

    def test_locate_array_matches_locate_many(self, pmap):
        sptrs = np.arange(1021, dtype=np.uint64)
        parts, offs = pmap.locate_array(sptrs)
        expected = [pmap.locate(p) for p in range(1021)]
        assert list(zip(parts.tolist(), offs.tolist())) == expected

    def test_offset_array_matches_offset_many(self, pmap):
        sptrs = np.arange(0, 1021, 3, dtype=np.uint64)
        offs = pmap.offset_array(sptrs)
        assert offs.tolist() == [pmap.offset_of(p) for p in range(0, 1021, 3)]


class TestRelationColumns:
    def test_append_and_read_columns(self, tmp_path):
        rel = RRelationFile.create(tmp_path / "r.seg", len(RECORDS), 128)
        cols = np.asarray(RECORDS, dtype=np.uint64)
        rel.append_columns(cols[:, 0], cols[:, 1], cols[:, 2])
        objs = [RObject(*r) for r in RECORDS]
        assert read_objects(rel) == objs
        a, b, c = rel.read_columns(0, len(RECORDS))
        assert list(zip(a.tolist(), b.tolist(), c.tolist())) == RECORDS
        rel.close()

    def test_iter_column_batches_covers_all_records(self, tmp_path):
        rel = RRelationFile.create(tmp_path / "r.seg", len(RECORDS), 128)
        append_objects(rel, RECORDS)
        got = []
        for a, b, c in rel.iter_column_batches(batch_records=16):
            got.extend(zip(a.tolist(), b.tolist(), c.tolist()))
        assert got == RECORDS
        rel.close()

    def test_dereference_columns_matches_dereference_many(self, tmp_path):
        rel = SRelationFile.create(tmp_path / "s.seg", 64, 128)
        append_objects(rel, [SObject(i + 1, i * 3, i) for i in range(64)])
        offsets = np.asarray([5, 0, 63, 17, 17, 2], dtype=np.uint64)
        sid, value = rel.dereference_columns(offsets)
        expected = dereference_many(rel, [int(o) for o in offsets])
        assert [
            (int(s), int(v)) for s, v in zip(sid, value)
        ] == [(o.sid, o.value) for o in expected]
        rel.close()

    def test_flushes_in_pieces_match_one_packed_write(self, tmp_path):
        """Scalar-packed records written over several flushes publish the
        bytes of one columnar write of the whole layout — which is a
        single contiguous write that keeps the streaming CRC."""
        buckets = 7
        by_bucket = {
            b: [RObject(*r) for r in RECORDS if r[0] % buckets == b]
            for b in range(buckets)
        }
        by_bucket[3] = []  # an empty bucket keeps its (0, 0) entry
        counts = [len(by_bucket[b]) for b in range(buckets)]
        layout = RecordLayout(128)

        pieces = BucketedRFile.create_laid_out(tmp_path / "pieces.seg", counts)
        for lo in range(0, len(RECORDS), 10):  # ten records per flush
            flush = {
                b: [o for o in objs if lo <= RECORDS.index(tuple(o)) < lo + 10]
                for b, objs in by_bucket.items()
            }
            pieces.write_buckets(
                pack_records([o for b in range(buckets) for o in flush[b]]),
                [len(flush[b]) for b in range(buckets)],
            )
        pieces.close()

        ordered = [o for b in range(buckets) for o in by_bucket[b]]
        cols = np.asarray(ordered, dtype=np.uint64).reshape(-1, 3)
        whole = BucketedRFile.create_laid_out(tmp_path / "whole.seg", counts)
        whole.write_buckets(
            layout.pack_columns(cols[:, 0], cols[:, 1], cols[:, 2]), counts
        )
        assert whole.segment._stream_count == len(RECORDS)
        whole.close()

        assert (
            (tmp_path / "pieces.seg").read_bytes()
            == (tmp_path / "whole.seg").read_bytes()
        )

    def test_read_bucket_columns_matches_scalar_iteration(self, tmp_path):
        buckets = 5
        groups = {
            b: [RObject(*r) for r in RECORDS if r[2] % buckets == b]
            for b in range(buckets)
        }
        rel = BucketedRFile.create_laid_out(
            tmp_path / "b.seg", [len(groups[b]) for b in range(buckets)]
        )
        rel.write_buckets(
            pack_records([o for b in range(buckets) for o in groups[b]]),
            [len(groups[b]) for b in range(buckets)],
        )
        for b in range(buckets):
            rid, sptr, payload = rel.read_bucket_columns(b)
            assert [
                RObject(*t)
                for t in zip(rid.tolist(), sptr.tolist(), payload.tolist())
            ] == groups[b] == [
                o for batch in iter_bucket_batches(rel, b, 7) for o in batch
            ]
        rel.close()


class TestPairSinkArrays:
    def test_emit_arrays_matches_emit_joined(self, tmp_path):
        rows = [
            (i, (i * 5) % 23, i + 100, i * 9 + 1) for i in range(41)
        ]
        scalar = ScalarPairSink(tmp_path / "scalar.seg", len(rows))
        scalar.emit_joined(
            [RObject(rid, 0, rp) for rid, _, rp, _ in rows],
            [SObject(sid, sv, 0) for _, sid, _, sv in rows],
        )
        scalar_result = scalar.close()

        arr = np.asarray(rows, dtype=np.uint64)
        vector = PairSink(tmp_path / "vector.seg", len(rows))
        vector.emit_arrays(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
        vector_result = vector.close()

        assert vector_result.count == scalar_result.count
        assert vector_result.checksum == scalar_result.checksum
        assert (
            (tmp_path / "scalar.seg").read_bytes()
            == (tmp_path / "vector.seg").read_bytes()
        )
