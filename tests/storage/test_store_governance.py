"""Store-level governance: the live-writer orphan guard and disk preflight.

Regression for the ``cleanup_orphans`` race: a second process sweeping
"orphan" ``.seg.tmp`` files while a writer is mid-publish would delete the
writer's file out from under it.  Live tmps are now flock-held by their
writer, so the sweeper skips them; only lock-free (dead-writer) tmps go.
"""

import pytest

from repro.governor import DiskExhausted, metering
from repro.storage import MappedSegment, Store


class TestCleanupOrphansLiveWriterGuard:
    def test_live_tmp_survives_cleanup(self, tmp_path):
        store = Store(str(tmp_path), disks=2)
        path = store.path(0, "LIVE0")
        writer = MappedSegment.create(str(path), capacity=4)
        tmp = path.with_suffix(path.suffix + ".tmp")
        assert tmp.exists()
        try:
            store.cleanup_orphans()
            assert tmp.exists(), "cleanup_orphans deleted a live writer's tmp"
        finally:
            writer.discard()
        assert not tmp.exists()

    def test_stale_tmp_is_swept(self, tmp_path):
        store = Store(str(tmp_path), disks=2)
        # A dead writer's leftover: a tmp with no flock holder.
        stale = tmp_path / "disk0" / "DEAD0.seg.tmp"
        stale.write_bytes(b"\x00" * 64)
        store.cleanup_orphans()
        assert not stale.exists()

    def test_live_then_published_tmp_cycle(self, tmp_path):
        """Publish releases the lock with the rename: nothing to sweep."""
        store = Store(str(tmp_path), disks=2)
        path = store.path(0, "PUB0")
        segment = MappedSegment.create(str(path), capacity=4)
        segment.append_batch(segment.layout.pack_columns([1], [2], [3]))
        segment.close()
        assert path.exists()
        store.cleanup_orphans()
        assert path.exists()


class TestDiskPreflightOnCreate:
    def test_create_over_budget_raises_classified(self, tmp_path):
        store = Store(str(tmp_path), disks=2)
        path0 = store.path(0, "A0")
        # One small segment fits the budget, not two.
        with metering(disk_limit_bytes=8192, store_root=str(tmp_path)):
            segment = MappedSegment.create(str(path0), capacity=4)
            segment.close()
            with pytest.raises(DiskExhausted) as info:
                MappedSegment.create(str(store.path(1, "B1")), capacity=4)
        error = info.value
        assert error.limit == 8192
        assert error.used == path0.stat().st_size
        # The refused create must not leave its own tmp behind.
        assert not any(tmp_path.rglob("*.seg.tmp"))

    def test_create_under_budget_passes(self, tmp_path):
        store = Store(str(tmp_path), disks=2)
        with metering(disk_limit_bytes=1 << 20, store_root=str(tmp_path)):
            segment = MappedSegment.create(
                str(store.path(0, "A0")), capacity=4
            )
            segment.close()

    def test_usage_bytes_tracks_reservation(self, tmp_path):
        store = Store(str(tmp_path), disks=2)
        assert store.usage_bytes() == 0
        path = store.path(0, "A0")
        segment = MappedSegment.create(str(path), capacity=4)
        tmp = path.with_suffix(path.suffix + ".tmp")
        # Truncated to full capacity at create: the tmp IS the reservation,
        # and publishing does not change it.
        reservation = tmp.stat().st_size
        assert store.usage_bytes() == reservation
        segment.close()
        assert store.usage_bytes() == reservation == path.stat().st_size
