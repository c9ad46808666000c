"""Atomic segment publication and torn-segment rejection.

The crash-recovery layer's safety argument rests entirely on this file:
a created segment must be invisible until close() publishes it by atomic
rename, a discarded or crashed create must leave nothing at the final
path, and open()/record_count() must reject any file a dead writer could
have left half-written.
"""

import errno
import os
import threading

import pytest

from repro.governor.errors import DiskExhausted
from repro.storage import segment as segment_module
from repro.storage.segment import (
    HEADER,
    MAGIC,
    PAGE_SIZE,
    MappedSegment,
    StorageError,
    arm_fault,
    disarm_fault,
    tmp_segment_path,
)
from repro.storage.store import Store


RECORD = bytes(range(128))


class TestAtomicPublish:
    def test_created_segment_is_tmp_until_close(self, tmp_path):
        path = tmp_path / "A.seg"
        segment = MappedSegment.create(path, 4)
        try:
            assert not path.exists()
            assert tmp_segment_path(path).exists()
        finally:
            segment.close()
        assert path.exists()
        assert not tmp_segment_path(path).exists()

    def test_close_publishes_written_records(self, tmp_path):
        path = tmp_path / "A.seg"
        segment = MappedSegment.create(path, 4)
        segment.append_batch(RECORD)
        segment.close()
        with MappedSegment.open(path) as reopened:
            assert len(reopened) == 1
            with reopened.read_batch(0, 1) as view:
                assert bytes(view) == RECORD

    def test_discard_publishes_nothing(self, tmp_path):
        path = tmp_path / "A.seg"
        segment = MappedSegment.create(path, 4)
        segment.append_batch(RECORD)
        segment.discard()
        assert not path.exists()
        assert not tmp_segment_path(path).exists()
        segment.discard()  # idempotent

    def test_exception_inside_with_discards(self, tmp_path):
        path = tmp_path / "A.seg"
        with pytest.raises(RuntimeError, match="mid-pass death"):
            with MappedSegment.create(path, 4) as segment:
                segment.append_batch(RECORD)
                raise RuntimeError("mid-pass death")
        assert not path.exists()
        assert not tmp_segment_path(path).exists()

    def test_clean_with_exit_publishes(self, tmp_path):
        path = tmp_path / "A.seg"
        with MappedSegment.create(path, 4) as segment:
            segment.append_batch(RECORD)
        assert path.exists()

    def test_overwrite_false_rejects_existing(self, tmp_path):
        path = tmp_path / "A.seg"
        MappedSegment.create(path, 4).close()
        with pytest.raises(StorageError, match="already exists"):
            MappedSegment.create(path, 4)

    def test_overwrite_replaces_only_at_close(self, tmp_path):
        path = tmp_path / "A.seg"
        first = MappedSegment.create(path, 4)
        first.append_batch(RECORD)
        first.close()
        second = MappedSegment.create(path, 4, overwrite=True)
        second.append_batch(RECORD)
        second.append_batch(RECORD)
        # Old contents stay readable until the new segment publishes.
        assert MappedSegment.record_count(path) == 1
        second.close()
        assert MappedSegment.record_count(path) == 2

    def test_overwrite_discard_keeps_old_contents(self, tmp_path):
        path = tmp_path / "A.seg"
        first = MappedSegment.create(path, 4)
        first.append_batch(RECORD)
        first.close()
        retry = MappedSegment.create(path, 4, overwrite=True)
        retry.append_batch(RECORD)
        retry.append_batch(RECORD)
        retry.discard()
        assert MappedSegment.record_count(path) == 1

    def test_create_replaces_stale_tmp_orphan(self, tmp_path):
        path = tmp_path / "A.seg"
        tmp_segment_path(path).write_bytes(b"garbage from a dead writer")
        with MappedSegment.create(path, 4) as segment:
            segment.append_batch(RECORD)
        assert MappedSegment.record_count(path) == 1

    def test_durable_close_still_publishes(self, tmp_path):
        path = tmp_path / "A.seg"
        segment = MappedSegment.create(path, 4, durable=True)
        segment.append_batch(RECORD)
        segment.close()
        assert MappedSegment.record_count(path) == 1


class TestCreateTimeDiskFull:
    def test_enospc_in_create_is_classified_and_leaves_nothing(
        self, tmp_path, monkeypatch
    ):
        """A raw ENOSPC out of the header write: ``create`` closes its
        file, removes its tmp and raises the classified error."""
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def disk_full(fd, data, offset):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(segment_module, "open", recording_open,
                            raising=False)
        monkeypatch.setattr(segment_module, "_pwrite_all", disk_full)
        path = tmp_path / "A.seg"
        with pytest.raises(DiskExhausted, match="A.seg"):
            MappedSegment.create(path, 4)
        assert [f.closed for f in opened] == [True]
        assert list(tmp_path.iterdir()) == []


class TestFaultPoint:
    def test_strikes_writes_and_publishes_of_the_arming_thread_only(
        self, tmp_path
    ):
        seen = []
        arm_fault(lambda site, segment: seen.append((site, segment.path)))
        try:
            other = threading.Thread(
                target=lambda: self.write_and_publish(tmp_path / "B.seg")
            )
            other.start()
            other.join()
            assert seen == []
            self.write_and_publish(tmp_path / "A.seg")
        finally:
            assert disarm_fault() is True
        assert disarm_fault() is False
        path = tmp_path / "A.seg"
        assert seen == [("write", path), ("publish", path),
                        ("published", path)]
        self.write_and_publish(tmp_path / "C.seg")
        assert len(seen) == 3

    @staticmethod
    def write_and_publish(path):
        segment = MappedSegment.create(path, 4)
        segment.append_batch(RECORD)
        segment.append_batch(b"")  # an empty batch writes nothing
        segment.close()
        MappedSegment.open(path).close()  # an opened segment publishes nothing


class TestTornSegmentRejection:
    def _write(self, path, header: bytes, pad: int = 0) -> None:
        path.write_bytes(header + b"\x00" * pad)

    def test_count_beyond_capacity_rejected(self, tmp_path):
        path = tmp_path / "torn.seg"
        self._write(
            path, HEADER.pack(MAGIC, 128, 4, 977), pad=PAGE_SIZE + 4 * 128
        )
        with pytest.raises(StorageError, match="torn"):
            MappedSegment.open(path)
        with pytest.raises(StorageError, match="torn"):
            MappedSegment.record_count(path)

    def test_truncated_data_area_rejected(self, tmp_path):
        path = tmp_path / "torn.seg"
        # Header claims a 64-record data area, file ends after the header.
        self._write(path, HEADER.pack(MAGIC, 128, 64, 10), pad=PAGE_SIZE)
        with pytest.raises(StorageError, match="torn"):
            MappedSegment.open(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.seg"
        self._write(
            path, HEADER.pack(b"NOTSEG\x00\x00", 128, 4, 0), pad=PAGE_SIZE
        )
        with pytest.raises(StorageError, match="not a segment"):
            MappedSegment.open(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.seg"
        path.write_bytes(b"hi")
        with pytest.raises(StorageError, match="not a segment"):
            MappedSegment.open(path)
        with pytest.raises(StorageError, match="not a segment"):
            MappedSegment.record_count(path)

    def test_garbage_record_bytes_rejected(self, tmp_path):
        path = tmp_path / "torn.seg"
        self._write(path, HEADER.pack(MAGIC, 0, 4, 0), pad=PAGE_SIZE * 2)
        with pytest.raises(StorageError, match="record size"):
            MappedSegment.open(path)

    def test_intact_segment_still_accepted(self, tmp_path):
        path = tmp_path / "ok.seg"
        with MappedSegment.create(path, 4) as segment:
            segment.append_batch(RECORD)
        with MappedSegment.open(path) as reopened:
            with reopened.read_batch(0, 1) as view:
                assert bytes(view) == RECORD


class TestOrphanCleanup:
    def test_cleanup_removes_only_tmp_files(self, tmp_path):
        store = Store(tmp_path / "db", 2)
        with MappedSegment.create(store.path(0, "R"), 4) as segment:
            segment.append_batch(RECORD)
        orphan = tmp_segment_path(store.path(1, "RP0"))
        orphan.write_bytes(b"dead writer output")
        assert store.cleanup_orphans() == 1
        assert not orphan.exists()
        assert store.path(0, "R").exists()
        assert store.cleanup_orphans() == 0

    def test_constructor_opt_in(self, tmp_path):
        root = tmp_path / "db"
        Store(root, 1)
        orphan = tmp_segment_path(root / "disk0" / "RP0.seg")
        orphan.write_bytes(b"x")
        Store(root, 1)  # default: leaves live writers' files alone
        assert orphan.exists()
        Store(root, 1, clean_orphans=True)
        assert not orphan.exists()
