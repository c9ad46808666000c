"""The per-worker memory meter: charging, limits, the activation stack."""

import threading

import pytest

from repro.governor import (
    MemoryExhausted,
    MemoryMeter,
    NullMeter,
    activate_meter,
    active_meter,
    deactivate_meter,
    metering,
    rss_high_water_bytes,
)


class TestMemoryMeter:
    def test_charge_and_release(self):
        meter = MemoryMeter()
        meter.charge(100, "batch")
        meter.charge(50, "run")
        assert meter.charged_bytes == 150
        assert meter.high_water_bytes == 150
        meter.release(120)
        assert meter.charged_bytes == 30
        assert meter.high_water_bytes == 150  # high water never recedes

    def test_release_clamps_at_zero(self):
        meter = MemoryMeter()
        meter.charge(10, "x")
        meter.release(100)
        assert meter.charged_bytes == 0

    def test_limit_trips_before_committing(self):
        meter = MemoryMeter(limit_bytes=100)
        meter.charge(80, "batch")
        with pytest.raises(MemoryExhausted) as info:
            meter.charge(40, "sort run")
        # The failed charge must not be committed.
        assert meter.charged_bytes == 80
        error = info.value
        assert error.requested == 40
        assert error.limit == 100
        assert error.used == 80
        assert "sort run" in str(error)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryMeter(limit_bytes=0)

    def test_mapped_bytes_tracked_but_never_limited(self):
        meter = MemoryMeter(limit_bytes=10)
        meter.map_bytes(1 << 30)  # far over the limit: mapped is page cache
        assert meter.mapped_high_water_bytes == 1 << 30
        meter.unmap_bytes(1 << 30)
        assert meter.mapped_bytes == 0
        assert meter.charged_bytes == 0


class TestActivationStack:
    def test_default_is_null(self):
        meter = active_meter()
        assert isinstance(meter, NullMeter)
        meter.charge(1 << 40, "anything")  # never raises, never counts

    def test_activate_deactivate(self):
        meter = MemoryMeter()
        assert activate_meter(meter) is meter
        try:
            assert active_meter() is meter
        finally:
            assert deactivate_meter() is meter
        assert isinstance(active_meter(), NullMeter)

    def test_nesting_restores_outer(self):
        outer, inner = MemoryMeter(), MemoryMeter()
        activate_meter(outer)
        try:
            with metering(meter=inner):
                assert active_meter() is inner
            assert active_meter() is outer
        finally:
            deactivate_meter()

    def test_concurrent_threads_do_not_share_a_stack(self):
        """Two daemon connection threads running inline tasks: each must
        charge — and trip — only its own meter."""
        both_active = threading.Barrier(2)
        seen = {}

        def task(name, limit, charge):
            with metering(limit) as mine:
                both_active.wait(timeout=10)
                meter = active_meter()
                try:
                    meter.charge(charge, name)
                    outcome = "fits"
                except MemoryExhausted:
                    outcome = "over"
                # Hold the scope open until the sibling has charged too.
                both_active.wait(timeout=10)
                seen[name] = (meter is mine, outcome, mine.charged_bytes)

        threads = [
            threading.Thread(target=task, args=("a", 100, 150)),
            threading.Thread(target=task, args=("b", 1000, 150)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert seen == {"a": (True, "over", 0), "b": (True, "fits", 150)}
        assert isinstance(active_meter(), NullMeter)


def test_rss_high_water_is_plausible():
    rss = rss_high_water_bytes()
    if rss is not None:
        # A running Python interpreter holds at least a few MB.
        assert rss > 1 << 20


def _own_peak(queue) -> None:
    queue.put(rss_high_water_bytes())


def test_a_spawned_child_reports_its_own_peak():
    """A spawned child's peak is its own, not the parent's it was
    exec'ed from.  Catches reading ``ru_maxrss``, which Linux carries
    across ``exec``: a spawn child of a 229 MiB parent read 228.7 MiB
    against its own 15.6 MiB ``VmHWM``."""
    import multiprocessing
    import sys

    if not sys.platform.startswith("linux"):
        pytest.skip("only Linux carries ru_maxrss across exec")
    held = bytearray(96 << 20)
    held[::4096] = b"\1" * (len(held) // 4096)  # every page resident
    parent = rss_high_water_bytes()
    assert parent >= 96 << 20
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    child = context.Process(target=_own_peak, args=(queue,))
    child.start()
    try:
        peak = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
    assert not child.is_alive()
    del held
    assert peak is not None and peak > 1 << 20
    assert peak < parent - (64 << 20), (peak, parent)


def test_page_faults_are_counted_per_thread():
    """A thread's faults are its own: touching 256 fresh mappings in one
    thread adds to its count, not to the thread that waits for it."""
    import mmap

    from repro.governor.watchdog import thread_page_faults

    if thread_page_faults() is None:
        pytest.skip("the OS counts no per-thread page faults")
    counted = {}

    def touch():
        before = thread_page_faults()[0]
        for _ in range(256):
            # One small fresh mapping per touch: no huge page can serve
            # two of them with one fault.
            with mmap.mmap(-1, mmap.PAGESIZE) as page:
                page[0] = 1
        counted["worker"] = thread_page_faults()[0] - before

    main_before = thread_page_faults()[0]
    worker = threading.Thread(target=touch)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    main_delta = thread_page_faults()[0] - main_before
    assert counted["worker"] >= 256
    assert main_delta < 64
