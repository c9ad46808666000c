"""Sample statistics and /proc accounting for the benchmark.

Nothing here knows about joins: these are the rules by which samples
become reported numbers, kept apart so ``test_stats.py`` can pin them.
"""

from __future__ import annotations

import os
import statistics
from typing import Iterable, List, Sequence, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: A tail percentile is only reported with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``: 100 samples support p90, 200 support
    p95.  Twenty samples or fewer support nothing above the median, so the
    median is what comes back, labelled 50.
    """
    n = len(samples)
    if n <= 2 * TAIL_SAMPLES_BEYOND:
        return 50.0, median(samples)
    ordered = sorted(samples)
    rank = n - TAIL_SAMPLES_BEYOND  # 1-based: exactly ten samples lie above it
    return 100.0 * rank / n, float(ordered[rank - 1])


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children may overlap each other (parallel tasks) or stick out of the
    parent; an instant covered twice is still subtracted once.
    """
    return (end - start) - covered(children, start, end)


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by the live ``pids``."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # The command name may hold spaces and parentheses; the
                # numeric fields start after the last ')'.
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # exited between listing and reading
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLOCK_TICKS


def child_pids() -> List[int]:
    """Every process whose parent is this one, zombies included.

    ``multiprocessing.active_children()`` lists only ``Process`` objects;
    this also sees what the library starts for itself (the spawn context's
    resource tracker) and anything a rig forgot.
    """
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[1] == me:  # ppid
            children.append(int(entry))
    return children


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Sum of the ``pids``' resident-set high-water marks (VmHWM), in MiB."""
    kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return kib / 1024.0


def relative_spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
