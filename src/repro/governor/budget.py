"""Disk reservation accounting and the pre-creation budget check.

Budgets travel to a worker in its task and live on the worker's active
:class:`~repro.governor.watchdog.MemoryMeter` for the duration of the
task (the driver activates one around the run, so materialization is
checked too).  Nothing about a budget is ever written to the store.

Disk accounting exploits a property the storage layer already has:
:meth:`MappedSegment.create` truncates the file to its *full* capacity up
front, so a segment's ``st_size`` **is** its disk reservation — summing
file sizes over the store gives exactly the space the run has claimed,
with no separate reservation ledger to keep consistent.
:func:`disk_preflight` checks a prospective creation against the budget
*before* the ``ftruncate`` that would otherwise die with a raw ``ENOSPC``
mid-write, and raises the classified
:class:`~repro.governor.errors.DiskExhausted` instead.

Budgets are written in one size grammar (:func:`parse_size`) and meet
pressure in one of :data:`ON_PRESSURE_MODES`, wherever they are set.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.governor.errors import DiskExhausted
from repro.governor.watchdog import active_meter

#: What resource pressure does to a join: lower the plan down the ladder,
#: queue for admission without re-planning, or fail with a classified error.
ON_PRESSURE_MODES = ("degrade", "queue", "fail")

_SIZE_SUFFIXES = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def parse_size(text: str) -> int:
    """``"256K"`` → 262144.  Bare numbers are bytes; suffixes K/M/G.

    The one size grammar budgets are written in, on the command line and
    in tenant configs alike; raises :class:`ValueError` on anything else.
    """
    raw = text.strip().upper()
    multiplier = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        multiplier = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw) * multiplier
    except ValueError:
        raise ValueError(f"invalid size {text!r} (expected e.g. 4096, 256K, 2M)")
    if value <= 0:
        raise ValueError(f"size must be positive: {text!r}")
    return value


#: Suffixes of the files whose sizes constitute the store's disk usage
#: (segments and their unpublished tmp siblings; anything else is noise).
_SEGMENT_SUFFIXES = (".seg", ".seg.tmp")


def store_usage_bytes(root: str | os.PathLike) -> int:
    """Bytes currently reserved by segments (and tmps) under ``root``.

    Because segments are truncated to full capacity at creation, this is
    the run's true disk reservation, not just the bytes written so far.
    """
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(_SEGMENT_SUFFIXES):
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    continue  # racing an unlink is fine; it freed space
    return total


def disk_preflight(segment_path: str | os.PathLike, nbytes: int) -> None:
    """Refuse a segment creation that would cross the armed disk budget.

    The budget and the store root it is summed over come from the active
    meter; with none armed this is one attribute read.
    """
    meter = active_meter()
    limit = meter.disk_limit_bytes
    if limit is None:
        return
    used = store_usage_bytes(meter.store_root)
    if used + nbytes > limit:
        raise DiskExhausted(
            f"disk budget exceeded creating {Path(segment_path).name}",
            requested=nbytes,
            limit=limit,
            used=used,
        )
