"""Meter-carried budgets and the store disk preflight."""

import pytest

from repro.governor import (
    DiskExhausted,
    MemoryExhausted,
    active_meter,
    disk_preflight,
    metering,
    store_usage_bytes,
)


class TestBudgetFile:
    """Budgets ride on the active meter; no file in the store says so."""

    def test_roundtrip(self, tmp_path):
        with metering(
            4096, disk_limit_bytes=1 << 20, store_root=str(tmp_path)
        ):
            meter = active_meter()
            assert meter.limit_bytes == 4096
            assert meter.disk_limit_bytes == 1 << 20
            assert meter.store_root == str(tmp_path)
            with pytest.raises(MemoryExhausted):
                meter.charge(4097)
        assert list(tmp_path.iterdir()) == []

    def test_absent_means_none(self):
        meter = active_meter()
        assert meter.limit_bytes is None
        assert meter.disk_limit_bytes is None

    def test_garbage_means_none(self, tmp_path):
        """A budget file in the store — torn, stale, or left by an older
        release — arms nothing: only the meter does."""
        disk = tmp_path / "disk0"
        disk.mkdir()
        (tmp_path / "governor.json").write_text("{not json")
        disk_preflight(disk / "big.seg", 1 << 40)
        (tmp_path / "governor.json").write_text('{"disk_budget_bytes": 1}')
        disk_preflight(disk / "big.seg", 1 << 40)

    def test_sweep(self, tmp_path):
        disk = tmp_path / "disk0"
        disk.mkdir()
        with metering(disk_limit_bytes=100, store_root=str(tmp_path)):
            with pytest.raises(DiskExhausted):
                disk_preflight(disk / "new.seg", 101)
        # Leaving the scope disarms the budget; there is nothing to sweep.
        disk_preflight(disk / "new.seg", 101)


class TestStoreUsage:
    def test_counts_segments_and_tmps_only(self, tmp_path):
        disk = tmp_path / "disk0"
        disk.mkdir()
        (disk / "a.seg").write_bytes(b"x" * 100)
        (disk / "b.seg.tmp").write_bytes(b"y" * 50)
        (disk / "notes.txt").write_bytes(b"z" * 1000)  # not storage
        assert store_usage_bytes(tmp_path) == 150


class TestDiskPreflight:
    def test_no_budget_no_limit(self, tmp_path):
        disk = tmp_path / "disk0"
        disk.mkdir()
        disk_preflight(disk / "big.seg", 1 << 40)  # no budget armed: passes

    def test_over_budget_raises_classified(self, tmp_path):
        disk = tmp_path / "disk0"
        disk.mkdir()
        (disk / "existing.seg").write_bytes(b"x" * 600)
        with metering(disk_limit_bytes=1000, store_root=str(tmp_path)):
            with pytest.raises(DiskExhausted) as info:
                disk_preflight(disk / "new.seg", 500)
        error = info.value
        assert error.requested == 500
        assert error.limit == 1000
        assert error.used == 600

    def test_under_budget_passes(self, tmp_path):
        disk = tmp_path / "disk0"
        disk.mkdir()
        with metering(disk_limit_bytes=1000, store_root=str(tmp_path)):
            disk_preflight(disk / "new.seg", 999)
