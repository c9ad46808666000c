"""Bounded admission control for concurrent ``run_real_join`` callers.

The paper's machine model has a fixed number of processors and disks; the
runtime equivalent is that N concurrent joins each spawning ``disks``
worker processes oversubscribe the pool and *all* of them thrash.  A
:class:`ResourceGovernor` is a small counting semaphore with a bounded
wait queue and an optional per-join deadline: up to ``max_concurrent``
joins run, up to ``queue_limit`` more wait their turn, and everything
beyond that (or anything whose deadline lapses while queued) is rejected
with a classified :class:`~repro.governor.errors.AdmissionRejected` —
backpressure as an error the caller can act on, not a mystery slowdown.

The join-service daemon extends the same gate to *multi-tenant* serving:

* every admission may carry a ``tenant`` name and an integer ``priority``
  (higher wins); when a slot frees, the highest-priority waiter — FIFO
  within a priority — is admitted, so a burst from a batch tenant cannot
  starve an interactive one;
* ``tenant_limits`` caps how many joins one tenant may have running at
  once regardless of free global slots (a per-tenant concurrency budget);
* per-tenant admitted/queued/rejected/degraded counts are kept for the
  service stats document (``service.tenants`` in schema v4).

One governor instance is shared by the callers it should arbitrate
(typically one per process serving many joins); ``run_real_join`` accepts
it as an optional parameter and runs ungoverned when none is given.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Mapping, Optional

from repro.governor.errors import AdmissionRejected


class AdmissionTicket:
    """Proof of admission; release it (or use as a context manager)."""

    def __init__(
        self,
        governor: "ResourceGovernor",
        decision: str,
        queued_ms: float,
        tenant: Optional[str] = None,
    ) -> None:
        self._governor = governor
        self.decision = decision  # "admitted" | "queued"
        self.queued_ms = queued_ms
        self.tenant = tenant
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._governor._release(self.tenant)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def _tenant_entry() -> Dict[str, int]:
    return {"admitted": 0, "queued": 0, "rejected": 0, "degraded": 0}


class ResourceGovernor:
    """Admit at most ``max_concurrent`` joins; queue a bounded overflow.

    Waiters are served highest-priority-first (FIFO within a priority);
    ``tenant_limits`` optionally caps per-tenant concurrency below the
    global limit.  Anonymous admissions (no tenant) keep the original
    single-caller semantics exactly.
    """

    def __init__(
        self,
        max_concurrent: int = 1,
        queue_limit: int = 8,
        deadline_s: Optional[float] = None,
        tenant_limits: Optional[Mapping[str, int]] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1: {max_concurrent}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0: {queue_limit}")
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self.deadline_s = deadline_s
        self.tenant_limits: Dict[str, int] = dict(tenant_limits or {})
        for tenant, limit in self.tenant_limits.items():
            if limit < 1:
                raise ValueError(
                    f"tenant limit must be >= 1: {tenant!r} -> {limit}"
                )
        self._lock = threading.Condition()
        self._running = 0
        self._running_by_tenant: Dict[str, int] = {}
        # Waiters as (-priority, seq) keys: min() is the next to admit —
        # highest priority first, then arrival order.
        self._wait_queue: Dict[tuple, Optional[str]] = {}
        self._seq = 0
        self._waiting = 0
        self.admitted_total = 0
        self.queued_total = 0
        self.rejected_total = 0
        self.tenants: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------- internals

    def _tenant_stats(self, tenant: Optional[str]) -> Optional[Dict[str, int]]:
        if tenant is None:
            return None
        return self.tenants.setdefault(tenant, _tenant_entry())

    def _tenant_has_room(self, tenant: Optional[str]) -> bool:
        if tenant is None or tenant not in self.tenant_limits:
            return True
        return (
            self._running_by_tenant.get(tenant, 0)
            < self.tenant_limits[tenant]
        )

    def _can_run(self, tenant: Optional[str]) -> bool:
        return self._running < self.max_concurrent and self._tenant_has_room(
            tenant
        )

    def _start_running(self, tenant: Optional[str]) -> None:
        self._running += 1
        if tenant is not None:
            self._running_by_tenant[tenant] = (
                self._running_by_tenant.get(tenant, 0) + 1
            )

    # -------------------------------------------------------------- admission

    def admit(
        self,
        on_pressure: str = "degrade",
        deadline_s: Optional[float] = None,
        tenant: Optional[str] = None,
        priority: int = 0,
    ) -> AdmissionTicket:
        """Block until a slot frees (or fail fast under ``on_pressure="fail"``).

        Returns an :class:`AdmissionTicket` whose ``decision`` records
        whether the join ran immediately or waited.  Raises
        :class:`AdmissionRejected` when the caller declines to wait, the
        queue is full, or the deadline lapses before a slot frees.
        """
        deadline = deadline_s if deadline_s is not None else self.deadline_s
        with self._lock:
            stats = self._tenant_stats(tenant)
            # Immediate admission only when no better-placed waiter exists:
            # a new arrival must not overtake a higher-or-equal-priority
            # waiter that is merely blocked on the global slot count.
            contested = any(
                key[0] <= -priority for key in self._wait_queue
            )
            if self._can_run(tenant) and not contested:
                self._start_running(tenant)
                self.admitted_total += 1
                if stats is not None:
                    stats["admitted"] += 1
                return AdmissionTicket(self, "admitted", 0.0, tenant)
            if on_pressure == "fail":
                self.rejected_total += 1
                if stats is not None:
                    stats["rejected"] += 1
                raise AdmissionRejected(
                    "governor saturated and on_pressure=fail",
                    requested=1,
                    limit=self.max_concurrent,
                    used=self._running,
                )
            if self._waiting >= self.queue_limit:
                self.rejected_total += 1
                if stats is not None:
                    stats["rejected"] += 1
                raise AdmissionRejected(
                    "governor admission queue is full",
                    requested=1,
                    limit=self.queue_limit,
                    used=self._waiting,
                )
            key = (-priority, self._seq)
            self._seq += 1
            self._wait_queue[key] = tenant
            self._waiting += 1
            started = time.monotonic()
            try:
                while True:
                    if self._can_run(tenant) and self._next_waiter() == key:
                        break
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - (time.monotonic() - started)
                        if remaining <= 0:
                            self.rejected_total += 1
                            if stats is not None:
                                stats["rejected"] += 1
                            raise AdmissionRejected(
                                f"admission deadline of {deadline:g}s lapsed "
                                "while queued",
                                limit=self.max_concurrent,
                                used=self._running,
                            )
                    self._lock.wait(timeout=remaining)
            finally:
                del self._wait_queue[key]
                self._waiting -= 1
                # A waiter leaving (admitted or rejected) may unblock the
                # next in line — e.g. when this one was the queue head.
                self._lock.notify_all()
            self._start_running(tenant)
            self.admitted_total += 1
            self.queued_total += 1
            if stats is not None:
                stats["admitted"] += 1
                stats["queued"] += 1
            queued_ms = (time.monotonic() - started) * 1000.0
            return AdmissionTicket(self, "queued", queued_ms, tenant)

    def _next_waiter(self) -> Optional[tuple]:
        """The wait-queue key that should be admitted next, if any.

        Highest priority first, FIFO within a priority — except that a
        head blocked *only* by its own tenant's concurrency cap must not
        wedge the queue, so the scan skips tenant-capped waiters.
        """
        for key in sorted(self._wait_queue):
            if self._tenant_has_room(self._wait_queue[key]):
                return key
        return None

    def _release(self, tenant: Optional[str] = None) -> None:
        with self._lock:
            self._running = max(0, self._running - 1)
            if tenant is not None and tenant in self._running_by_tenant:
                remaining = self._running_by_tenant[tenant] - 1
                if remaining > 0:
                    self._running_by_tenant[tenant] = remaining
                else:
                    del self._running_by_tenant[tenant]
            # notify_all, not notify: admission order is decided by the
            # priority queue, and the woken thread must re-check whether
            # it is the chosen head.
            self._lock.notify_all()

    # ------------------------------------------------------------- accounting

    def note_degraded(self, tenant: Optional[str], rounds: int = 1) -> None:
        """Attribute ``rounds`` plan degradations to ``tenant``.

        The governor only sees admissions; the driver's degradation
        loop reports back through the caller (the service daemon) so the
        per-tenant counts land in one place.
        """
        if tenant is None or rounds <= 0:
            return
        with self._lock:
            self._tenant_stats(tenant)["degraded"] += rounds

    def note_rejected(self, tenant: Optional[str]) -> None:
        """Count a rejection decided *outside* ``admit`` (e.g. a budget
        preflight refusing the plan before admission was attempted)."""
        with self._lock:
            self.rejected_total += 1
            stats = self._tenant_stats(tenant)
            if stats is not None:
                stats["rejected"] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "max_concurrent": self.max_concurrent,
                "queue_limit": self.queue_limit,
                "running": self._running,
                "waiting": self._waiting,
                "admitted_total": self.admitted_total,
                "queued_total": self.queued_total,
                "rejected_total": self.rejected_total,
                "tenant_limits": dict(self.tenant_limits),
                "tenants": {
                    name: dict(entry) for name, entry in self.tenants.items()
                },
            }
