"""The engine-side task wrapper and the shared worker utilities.

Everything cross-cutting that every stage kernel used to re-implement
lives here exactly once:

* :class:`TaskSpec` — the one frozen, picklable value a worker is handed.
  Run state travels in the task; observations return in the result; the
  store holds data and the checkpoint, nothing else;
* :func:`run_task` — the module-level (hence picklable) wrapper the
  driver dispatches to the pool.  It fires the fault the spec carries,
  at entry or armed at the storage fault point around the kernel call,
  activates the memory meter and a task-local metrics registry, returns
  the registry's snapshot beside the kernel's result, and classifies any
  raw ``OSError``/``MemoryError`` escaping a kernel into the governor's
  :class:`~repro.governor.errors.ResourceExhausted` hierarchy (which
  pickles intact through the pool);
* :class:`PairSink` / :class:`PairResult` — streaming pair output into a
  mapped segment, returning only ``(count, checksum, path)``;
* the stage-owned artifact naming scheme (:func:`pairs_name`,
  :func:`run_name` / :func:`sort_run_spans`, :func:`merge_run_name` (one
  segment per merge level) / :func:`sweep_merge_runs`,
  :func:`bucket_spill_name` / :func:`bucket_spill_paths`) — so producers
  and consumers of spill files agree on names through one module.

Kernels are plain functions registered by name
(:func:`register_kernel`, which returns them unchanged, so tests call
them directly); the spec names its kernel and :func:`run_task` resolves
it in the worker process.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as _np

from repro.core.pointer import PointerMap
from repro.governor.errors import ResourceExhausted, classify_os_error
from repro.governor.predict import JoinPlan
from repro.obs.registry import MetricsRegistry, activate, active, deactivate
from repro.obs.spans import span
from repro.governor.watchdog import (
    MemoryMeter,
    activate_meter,
    deactivate_meter,
    rss_high_water_bytes,
    thread_page_faults,
)
from repro.parallel.faults import STORAGE_SITES, FaultSpec, fire_fault, strike
from repro.storage.relation import PairsFile
from repro.storage.segment import MappedSegment, arm_fault, disarm_fault
from repro.storage.store import Store

BATCH_RECORDS = 4096
CHECKSUM_MOD = 1 << 61


# ---------------------------------------------------------------- the task

@dataclass(frozen=True)
class TaskSpec:
    """Everything one worker task is told — the whole of its run state.

    The driver builds one per task (``plan_stage_units``) and ships it
    as the pool payload; a kernel called directly (tests) needs only the
    five store coordinates, every knob defaulting to the ungoverned
    :class:`~repro.governor.predict.JoinPlan`.
    """

    store_root: str
    disks: int
    partition: int
    s_objects: int
    r_bytes: int
    #: Registered kernel name; :func:`run_task` resolves it.
    kernel: str = ""
    #: The round's plan — a degradation round dispatches specs built from
    #: the lowered plan, which is how every knob changes under workers
    #: that forked long before the run.
    plan: JoinPlan = JoinPlan()
    worker_mem_budget: Optional[int] = None
    disk_budget: Optional[int] = None
    #: Collect a task-local metrics registry and return its snapshot.
    metrics: bool = False
    #: 0-based count of earlier dispatches of this (kernel, partition),
    #: and the one fault pinned to that coordinate, if any.
    attempt: int = 0
    fault: Optional[FaultSpec] = None

    def open_store(self) -> Store:
        return Store(self.store_root, self.disks)

    def pointer_map(self) -> PointerMap:
        return PointerMap(s_objects=self.s_objects, partitions=self.disks)


# ---------------------------------------------------------- kernel registry

_KERNELS: Dict[str, Callable] = {}


def register_kernel(func: Callable) -> Callable:
    """Register a stage kernel under its function name.

    Returns ``func`` unchanged — kernels stay plain callables (tests
    invoke them directly with a :class:`TaskSpec`; the null-object
    fallbacks of :func:`~repro.governor.watchdog.active_meter` and
    :func:`~repro.obs.registry.active` make that legal).
    """
    _KERNELS[func.__name__] = func
    return func


def resolve_kernel(name: str) -> Callable:
    """Look up a kernel by name, importing the kernel module on demand.

    A fresh pool process may run :func:`run_task` before anything imported
    :mod:`repro.parallel.vectorized`; the lazy import fills the registry.
    """
    if name not in _KERNELS:
        importlib.import_module("repro.parallel.vectorized")
    try:
        return _KERNELS[name]
    except KeyError:
        raise LookupError(f"no registered kernel {name!r}") from None


def run_task(spec: TaskSpec) -> Tuple[object, Optional[dict]]:
    """Execute one task; return ``(kernel_result, registry_snapshot)``.

    This is the backend's single instrumentation point *and* its
    classification boundary: any raw ``OSError``/``MemoryError`` that
    escapes a kernel — a real ``ENOSPC`` out of an ``ftruncate``, an
    injected ``disk-full``, an allocator failure — leaves here as a
    classified :class:`ResourceExhausted` subtype, so the driver can
    tell "this join needs a smaller plan" apart from "the code is
    broken".  The snapshot is ``None`` unless ``spec.metrics``.
    """
    func = resolve_kernel(spec.kernel)
    try:
        return _governed(func, spec)
    except ResourceExhausted:
        raise
    except (MemoryError, OSError) as error:
        classified = classify_os_error(
            error, f"{spec.kernel} partition {spec.partition}"
        )
        if classified is not None:
            raise classified from error
        raise


def _governed(func: Callable, spec: TaskSpec):
    """Run one kernel under the budgets/metrics its spec arms, if any.

    A ``crash``, ``hang`` or ``mem-pressure`` fault fires first, before
    any registry or file handle is acquired; a storage fault is armed
    around the kernel call (:func:`_faulted`).
    """
    fault = spec.fault
    if fault is not None:
        if fault.kind not in STORAGE_SITES:
            fire_fault(fault)  # never returns
        func = partial(_faulted, func)
    governed = (
        spec.worker_mem_budget is not None or spec.disk_budget is not None
    )
    if not governed and not spec.metrics:
        return func(spec), None
    meter = activate_meter(
        MemoryMeter(spec.worker_mem_budget, spec.disk_budget, spec.store_root)
    )
    try:
        if not spec.metrics:
            return func(spec), None
        task, partition = spec.kernel, spec.partition
        registry = activate(MetricsRegistry())
        faults = thread_page_faults()
        started = time.perf_counter()
        try:
            with span("task", task=task, worker=partition):
                result = func(spec)
        finally:
            deactivate()
        wall_ms = (time.perf_counter() - started) * 1000.0
        if faults is not None:
            # This thread's faults while the kernel ran: the refaults a
            # released page costs show up here.
            minflt, majflt = thread_page_faults()
            registry.count("worker.minflt", minflt - faults[0], task=task)
            registry.count("worker.majflt", majflt - faults[1], task=task)
        labels = {"task": task, "worker": partition}
        registry.gauge("worker.wall_ms", wall_ms, **labels)
        registry.gauge(
            "worker.mem_high_water_bytes",
            float(meter.high_water_bytes), **labels,
        )
        registry.gauge(
            "worker.mapped_peak_bytes",
            float(meter.mapped_high_water_bytes), **labels,
        )
        rss = rss_high_water_bytes()
        if rss is not None:
            registry.gauge("worker.rss_max_bytes", float(rss), **labels)
        registry.count("worker.tasks", 1, task=task)
        return result, registry.snapshot()
    finally:
        deactivate_meter()


def _faulted(func: Callable, spec: TaskSpec):
    """Call ``func`` with the spec's storage fault armed for this thread.

    The fault strikes the kernel's own segments at its site; a kernel
    that returns without reaching it takes the fault at exit instead.
    """
    arm_fault(partial(strike, spec.fault))
    try:
        result = func(spec)
    finally:
        unreached = disarm_fault()
    if unreached:
        fire_fault(spec.fault)
    return result


# -------------------------------------------------------------- pair output

class PairResult(NamedTuple):
    """What a pair-producing kernel sends back instead of the pairs."""

    count: int
    checksum: int
    path: str


class StageOutput(NamedTuple):
    """Return value of a stage that both moves records and emits pairs."""

    moved: int
    pairs: PairResult


class PairSink:
    """Stream joined pairs into one mapped segment, checksumming as we go.

    The checksum is the simulator's ``PairCollector`` mix — summing
    per-batch and reducing once is equivalent to the per-pair running mod.
    """

    def __init__(self, path: Path, capacity: int) -> None:
        self.path = path
        # overwrite=True: a retried pass legally replaces the outputs a
        # failed attempt published; the segment stays a .tmp sibling
        # until close() renames it into place.
        self._file = PairsFile.create(path, max(1, capacity), overwrite=True)
        self.count = 0
        self.checksum = 0

    def emit_arrays(self, rid, sid, r_payload, s_value) -> None:
        """Join matched column arrays positionally and stream the pairs.

        One ``(n, 4)`` u64 block is written into the mapped segment in a
        single append, and the checksum mix runs as wrapping u64
        arithmetic — exact, because ``CHECKSUM_MOD`` divides ``2**64``.
        """
        n = int(len(rid))
        if not n:
            return
        block = _np.empty((n, 4), dtype="<u8")
        block[:, 0] = rid
        block[:, 1] = sid
        block[:, 2] = r_payload
        block[:, 3] = s_value
        self._file.append_packed(memoryview(block).cast("B"))
        self.count += n
        mix = (
            rid * _np.uint64(1_000_003)
            + sid * _np.uint64(7919)
            + s_value
        )
        self.checksum = (
            self.checksum + int(mix.sum(dtype=_np.uint64))
        ) % CHECKSUM_MOD

    def close(self) -> PairResult:
        """Publish the segment (atomic rename) and report its totals."""
        self._file.close()
        if self.count:
            active().count("worker.pairs", self.count)
        return PairResult(self.count, self.checksum, str(self.path))

    def abort(self) -> None:
        """Discard the sink without publishing (idempotent failure path)."""
        self._file.abort()


# -------------------------------------------------- artifact naming scheme

def pairs_name(label: str, partition: int) -> str:
    """The PAIRS segment written by one worker of one pass."""
    return f"PAIRS_{label}_{partition}"


def rs_name(target: int, contributor: int) -> str:
    """One contributor's range-partitioned spill for the sort-merge plan."""
    return f"RS{target}_from{contributor}"


def nl_spill_name(owner: int, partner: int) -> str:
    """Nested loops' pass-0 spill of ``owner``'s references to ``partner``."""
    return f"RP{owner}_{partner}"


def run_name(partition: int) -> str:
    """The one segment a sort-run task writes: all of its sorted runs.

    Runs are extents inside the segment
    (:class:`~repro.storage.relation.SortedRunsFile`), not files; their
    cut order is the partition's inbound order — the order the merge
    breaks ties in.
    """
    return f"RUN{partition}"


def sort_run_spans(store: Store, spec: TaskSpec) -> List[Tuple[Path, int]]:
    """The ``(RS file, records)`` pairs one sort-run task cuts.

    The partition's inbound stream is its RS files in contributor order.
    Sizes come from header reads; the cutter maps only what it reads.
    """
    i = spec.partition
    spans = []
    for contributor in range(spec.disks):
        path = store.path(i, rs_name(i, contributor))
        spans.append((path, MappedSegment.record_count(path)))
    return spans


def merge_run_name(partition: int, level: int) -> str:
    """One level of the bounded-fan-in merge, a RUN-format segment.

    Its own family, never a ``RUN`` name, so the sort-run stage's
    checkpointed artifacts cannot be mistaken for a merge task's scratch.
    """
    return f"MRG{partition}_{level}"


def sweep_merge_runs(store: Store, partition: int) -> None:
    """Delete every published merge level of one merge task.

    Called by the task before it merges (a killed attempt's leftovers)
    and when it ends, however it ends: levels never outlive the task
    that wrote them.  Unpublished ``.seg.tmp`` files are discarded by
    their writer, or by the driver's orphan sweep if it died.
    """
    for path in store.disk_dir(partition).glob(f"MRG{partition}_*.seg"):
        path.unlink(missing_ok=True)


def bucket_spill_name(target: int, contributor: int) -> str:
    """One contributor's bucketed spill file for one target partition."""
    return f"BS{target}_from{contributor}"


def bucket_spill_paths(
    store: Store, partition: int, contributor: int
) -> List[Path]:
    """One contributor's spill file for ``partition``, if it wrote one."""
    path = store.path(partition, bucket_spill_name(partition, contributor))
    return [path] if path.exists() else []
