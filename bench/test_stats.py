"""Pins the rules by which samples become reported numbers.

Run with ``python -m pytest bench -q``; tier-1 (``testpaths = tests``)
does not collect it.
"""

import os
import subprocess
import sys
import time

import pytest

from spans import SpanLog
from stats import (
    child_pids,
    covered,
    cpu_seconds,
    peak_rss_mib,
    relative_spread,
    self_time,
    tail_percentile,
)


@pytest.mark.parametrize("n, percentile", [(100, 90.0), (200, 95.0), (21, 100 * 11 / 21)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    samples = list(range(1, n + 1))
    got_percentile, value = tail_percentile(samples[::-1])
    assert got_percentile == pytest.approx(percentile)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_falls_back_to_median_without_ten_samples_beyond():
    assert tail_percentile([5.0, 1.0, 3.0]) == (50.0, 3.0)
    assert tail_percentile(list(range(20))) == (50.0, 9.5)


def test_self_time_subtracts_overlapping_children_once():
    # Children 10-40 and 30-60 overlap; 90-120 sticks out past the parent.
    assert covered([(30, 60), (10, 40), (90, 120)], 0, 100) == 60
    assert self_time(0, 100, [(10, 40), (30, 60), (90, 120)]) == 40
    assert self_time(0, 100, []) == 100
    assert self_time(0, 100, [(-5, 200)]) == 0


def test_span_self_times_account_for_the_round():
    log = SpanLog("test")
    with log.span("round") as round_span:
        with log.span("join:a") as join:
            time.sleep(0.002)
        with log.span("join:b"):
            time.sleep(0.001)
    assert join.parent == round_span.id
    # Stages partition the join; parallel tasks overlap inside their stage.
    log.attach_stages(join, {
        "per_pass": {"p0": {"wall_ms": 0.5}, "p1": {"wall_ms": 0.7}},
        "per_worker": {"p0": {"0": {"wall_ms": 0.4}, "1": {"wall_ms": 0.5}}},
    })
    stages = [s for s in log.spans if s.name.startswith("stage:")]
    assert stages[1].start_us == pytest.approx(stages[0].end_us)
    assert log.accounted_share("round") == pytest.approx(1.0)
    assert log.accounted_share("no-such-span") == 1.0


def test_proc_cpu_accounting_tracks_process_time():
    me = [os.getpid()]
    cpu_before, clock_before = cpu_seconds(me), time.process_time()
    deadline = time.process_time() + 0.3
    while time.process_time() < deadline:
        sum(range(1000))
    burned = time.process_time() - clock_before
    # /proc counts in clock ticks (10 ms), process_time in nanoseconds.
    assert cpu_seconds(me) - cpu_before == pytest.approx(burned, abs=0.05)
    assert cpu_seconds([2 ** 22 + 12345]) == 0.0  # a pid that does not exist


def test_peak_rss_covers_what_the_process_holds():
    block = bytearray(32 << 20)
    assert peak_rss_mib([os.getpid()]) > 32
    del block


def test_child_pids_sees_a_child_until_it_is_waited_for():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert child.pid in child_pids()
    finally:
        child.kill()
        child.wait()
    assert child.pid not in child_pids()


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
