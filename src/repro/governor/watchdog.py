"""The per-process memory meter: the governor's runtime watchdog.

The budget a join is admitted under has to be *enforced* somewhere, and
"somewhere" cannot be the OS — by the time the kernel notices pressure the
worker is an OOM-kill candidate, not a degradation candidate.  So each
worker process carries a :class:`MemoryMeter` that the hot paths charge in
**record bytes** — the unit the analytical model predicts in
(:mod:`repro.governor.predict`), which is what makes the predicted-vs-
observed comparison in the stats document an apples-to-apples one.

Charges cover the buffered *objects* a worker retains (decoded batches,
grace bucket groups, sort runs); file-backed mapped bytes are tracked
separately (:meth:`MemoryMeter.map_bytes`) but never limited — the OS
pager reclaims clean mapped pages under pressure, so mapping a large
segment is not the same hazard as materializing it.

Activation mirrors :mod:`repro.obs.registry`: a per-thread stack, a
shared no-op :class:`NullMeter` when nothing is active, and a ``metering``
context manager.  A charge that would cross the limit raises
:class:`~repro.governor.errors.MemoryExhausted` *before* allocating, which
the runner's degradation loop turns into a smaller plan instead of a dead
worker.

The meter also carries the run's disk budget and the store root it
applies to, so :func:`repro.governor.budget.disk_preflight` asks the
active meter instead of looking anything up on disk.

RSS is sampled once per task — the process's lifetime high-water mark
(``VmHWM``, else ``getrusage``), reported as a coarse cross-check gauge
next to the precise record-byte meter.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.governor.errors import MemoryExhausted

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

import sys


def rss_high_water_bytes() -> Optional[int]:
    """This process's lifetime peak RSS in bytes, if the OS reports one.

    ``VmHWM`` from ``/proc/self/status`` where it exists: Linux carries
    ``ru_maxrss`` across ``exec``, so a spawned worker's would be its
    driver's peak, not its own.  ``ru_maxrss`` elsewhere.
    """
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def thread_page_faults() -> Optional[Tuple[int, int]]:
    """The calling thread's ``(minor, major)`` page faults so far, where
    the OS counts per thread (``RUSAGE_THREAD``, Linux).

    Per thread, not per process: an inline task and a daemon connection
    thread's task are counted apart from whatever else their process runs.
    """
    who = getattr(_resource, "RUSAGE_THREAD", None)
    if who is None:
        return None
    usage = _resource.getrusage(who)
    return usage.ru_minflt, usage.ru_majflt


class MemoryMeter:
    """Track (and optionally limit) one process's buffered record bytes."""

    enabled = True

    def __init__(
        self,
        limit_bytes: Optional[int] = None,
        disk_limit_bytes: Optional[int] = None,
        store_root: Optional[str] = None,
    ) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive: {limit_bytes}")
        self.limit_bytes = limit_bytes
        #: Whole-store disk budget and the root it is summed over; read by
        #: ``disk_preflight`` before every segment creation.
        self.disk_limit_bytes = disk_limit_bytes
        self.store_root = store_root
        self.charged_bytes = 0
        self.high_water_bytes = 0
        self.mapped_bytes = 0
        self.mapped_high_water_bytes = 0

    # ------------------------------------------------------- record buffers

    def charge(self, nbytes: int, what: str = "buffered records") -> None:
        """Account ``nbytes`` of retained objects; raise before overflow."""
        if nbytes <= 0:
            return
        total = self.charged_bytes + nbytes
        if self.limit_bytes is not None and total > self.limit_bytes:
            raise MemoryExhausted(
                f"memory budget exceeded buffering {what}",
                requested=nbytes,
                limit=self.limit_bytes,
                used=self.charged_bytes,
            )
        self.charged_bytes = total
        if total > self.high_water_bytes:
            self.high_water_bytes = total

    def release(self, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self.charged_bytes = max(0, self.charged_bytes - nbytes)

    # -------------------------------------------------------- mapped bytes

    def map_bytes(self, nbytes: int) -> None:
        """Track a new mapping (observability only — never limited)."""
        if nbytes <= 0:
            return
        self.mapped_bytes += nbytes
        if self.mapped_bytes > self.mapped_high_water_bytes:
            self.mapped_high_water_bytes = self.mapped_bytes

    def unmap_bytes(self, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self.mapped_bytes = max(0, self.mapped_bytes - nbytes)


class NullMeter(MemoryMeter):
    """The disabled meter: every accounting method is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(None)

    def charge(self, nbytes: int, what: str = "buffered records") -> None:
        pass

    def release(self, nbytes: int) -> None:
        pass

    def map_bytes(self, nbytes: int) -> None:
        pass

    def unmap_bytes(self, nbytes: int) -> None:
        pass


_NULL = NullMeter()


class _ActiveStacks(threading.local):
    """Per-thread activation stacks (same shape as ``obs.registry``).

    The join-service daemon runs inline tasks on its connection threads;
    a process-global stack would let one request's task charge — and
    trip — a sibling request's meter.
    """

    def __init__(self) -> None:
        self.stack: List[MemoryMeter] = []


_ACTIVE = _ActiveStacks()


def active_meter() -> MemoryMeter:
    """The meter instrumented code should charge right now."""
    stack = _ACTIVE.stack
    return stack[-1] if stack else _NULL


def activate_meter(meter: MemoryMeter) -> MemoryMeter:
    """Push a meter; storage and worker code in this thread charges it."""
    _ACTIVE.stack.append(meter)
    return meter


def deactivate_meter() -> Optional[MemoryMeter]:
    """Pop the innermost active meter (no-op when none is active)."""
    stack = _ACTIVE.stack
    return stack.pop() if stack else None


class metering:
    """``with metering(limit) as meter:`` — scoped activation."""

    def __init__(
        self,
        limit_bytes: Optional[int] = None,
        meter: Optional[MemoryMeter] = None,
        *,
        disk_limit_bytes: Optional[int] = None,
        store_root: Optional[str] = None,
    ) -> None:
        self.meter = (
            meter
            if meter is not None
            else MemoryMeter(limit_bytes, disk_limit_bytes, store_root)
        )

    def __enter__(self) -> MemoryMeter:
        return activate_meter(self.meter)

    def __exit__(self, *exc_info) -> None:
        deactivate_meter()
