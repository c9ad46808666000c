"""The engine-side task wrapper and the shared worker utilities.

Everything cross-cutting that every stage kernel used to re-implement
lives here exactly once:

* :class:`TaskSpec` — the one frozen, picklable value a worker is handed.
  Run state travels in the task; observations return in the result; the
  store holds data and the checkpoint, nothing else;
* :func:`run_task` — the module-level (hence picklable) wrapper the
  executor dispatches to the pool.  It fires the fault the spec carries,
  activates the memory meter and a task-local metrics registry, returns
  the registry's snapshot beside the kernel's result, and classifies any
  raw ``OSError``/``MemoryError`` escaping a kernel into the governor's
  :class:`~repro.governor.errors.ResourceExhausted` hierarchy (which
  pickles intact through the pool);
* :class:`PairSink` / :class:`PairResult` — streaming pair output into a
  mapped segment, returning only ``(count, checksum, path)``;
* batch utilities (:func:`rebatch`, :func:`run_stream`) and the
  stage-owned artifact naming scheme (:func:`pairs_name`,
  :func:`run_name` / :func:`run_paths`, :func:`merge_run_name` /
  :func:`sweep_merge_runs`, :func:`bucket_spill_name` /
  :func:`bucket_spill_paths`) — so producers and consumers of spill files
  agree on names through one module instead of duplicated string logic.

Kernels are plain functions registered by name
(:func:`register_kernel`); the spec names its kernel and
:func:`run_task` resolves it in the worker process — keeping the kernels
decorator-free (directly callable in tests).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

import numpy as _np

from repro.core.pointer import PointerMap
from repro.core.records import RObject
from repro.governor.errors import ResourceExhausted, classify_os_error
from repro.governor.predict import JoinPlan
from repro.obs.registry import MetricsRegistry, activate, active, deactivate
from repro.obs.spans import span
from repro.governor.watchdog import (
    MemoryMeter,
    activate_meter,
    deactivate_meter,
    rss_high_water_bytes,
)
from repro.parallel.faults import FaultSpec, fire_fault
from repro.storage.relation import PairsFile, RRelationFile
from repro.storage.store import Store

BATCH_RECORDS = 4096
CHECKSUM_MOD = 1 << 61

KERNEL_MODES = ("scalar", "vector")


# ---------------------------------------------------------------- sharding

class Shard(NamedTuple):
    """One slice of a rebalanced task's input, attached by the executor.

    ``index``/``count`` place the shard among its siblings for the same
    partition; ``lo``/``hi`` bound the half-open input range along the
    stage's declared axis (record positions, sorted pointer keys, or
    bucket numbers — the kernel knows which).
    """

    index: int
    count: int
    lo: int
    hi: int


#: Run-id namespace per shard: sorted runs cut by shard ``k`` are numbered
#: ``k * RUN_SHARD_STRIDE + local_id`` so the numeric run-id sort used by
#: :func:`run_paths` yields shard order, then cut order — i.e. exactly the
#: concatenated inbound order an unsharded sort-run pass would produce.
RUN_SHARD_STRIDE = 1 << 20


def task_slot(partition: int, shard: Shard | None) -> int | str:
    """The metrics/label slot for a task: partition, or partition+shard."""
    return partition if shard is None else f"{partition}s{shard.index}"


# ---------------------------------------------------------------- the task

@dataclass(frozen=True)
class TaskSpec:
    """Everything one worker task is told — the whole of its run state.

    The executor builds one per task (``plan_stage_units``) and ships it
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
    #: the lowered plan, which is how every knob (kernel mode included)
    #: changes under workers that forked long before the run.
    plan: JoinPlan = JoinPlan()
    #: The slice of this partition's input, when the rebalancer split it.
    shard: Optional[Shard] = None
    worker_mem_budget: Optional[int] = None
    disk_budget: Optional[int] = None
    #: Collect a task-local metrics registry and return its snapshot.
    metrics: bool = False
    #: 0-based count of earlier dispatches of this (kernel, partition),
    #: and the one fault pinned to that coordinate, if any.
    attempt: int = 0
    fault: Optional[FaultSpec] = None

    @property
    def slot(self) -> int | str:
        return task_slot(self.partition, self.shard)

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
    :mod:`repro.parallel.workers`; the lazy import fills the registry.
    """
    if name not in _KERNELS:
        importlib.import_module("repro.parallel.workers")
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
    classified :class:`ResourceExhausted` subtype, so the executor can
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

    The fault fires first — before any registry or file handle is
    acquired — because a real crash would also strike before the task
    produced anything.
    """
    if spec.fault is not None:
        fire_fault(spec.fault, spec.store_root)
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
        task, slot = spec.kernel, spec.slot
        registry = activate(MetricsRegistry())
        started = time.perf_counter()
        try:
            with span("task", task=task, worker=slot):
                result = func(spec)
        finally:
            deactivate()
        wall_ms = (time.perf_counter() - started) * 1000.0
        labels = {"task": task, "worker": slot}
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

    def emit_joined(self, r_objects: List[RObject], s_objects: List) -> None:
        """Join matched R/S batches positionally and stream the pairs."""
        pairs = [
            (r[0], s[0], r[2], s[1])
            for r, s in zip(r_objects, s_objects)
        ]
        if not pairs:
            return
        self._file.append_many(pairs)
        active().count("worker.pairs", len(pairs))
        self.count += len(pairs)
        self.checksum = (
            self.checksum
            + sum(p[0] * 1_000_003 + p[1] * 7919 + p[3] for p in pairs)
        ) % CHECKSUM_MOD

    def emit_arrays(self, rid, sid, r_payload, s_value) -> None:
        """Join matched column arrays positionally and stream the pairs.

        The vector-kernel counterpart of :meth:`emit_joined`: one
        ``(n, 4)`` u64 block is written into the mapped segment in a
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
        active().count("worker.pairs", n)
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
        return PairResult(self.count, self.checksum, str(self.path))

    def abort(self) -> None:
        """Discard the sink without publishing (idempotent failure path)."""
        self._file.abort()


# -------------------------------------------------- artifact naming scheme

def pairs_name(label: str, partition: int, shard: Shard | None = None) -> str:
    """The PAIRS segment written by one worker of one pass.

    Shard tasks publish disjoint segments (``_s<k>`` suffix) so sibling
    shards of one partition never race on a name; the executor collects
    every segment, and the order-independent checksum makes the union
    bit-identical to the unsharded single segment.
    """
    base = f"PAIRS_{label}_{partition}"
    return base if shard is None else f"{base}_s{shard.index}"


def rs_name(target: int, contributor: int) -> str:
    """One contributor's range-partitioned spill for the sort-merge plan."""
    return f"RS{target}_from{contributor}"


def nl_spill_name(owner: int, partner: int) -> str:
    """Nested loops' pass-0 spill of ``owner``'s references to ``partner``."""
    return f"RP{owner}_{partner}"


def run_name(partition: int, run_id: int) -> str:
    """One sorted run cut by the sort-run stage."""
    return f"RUN{partition}_{run_id}"


def run_paths(store: Store, partition: int) -> List[Path]:
    """Every published run for ``partition``, in run-id order."""
    prefix = f"RUN{partition}_"
    paths = [
        path for path in store.disk_dir(partition).glob(f"{prefix}*.seg")
        if path.name[len(prefix):-len(".seg")].isdigit()
    ]
    paths.sort(key=lambda path: int(path.name[len(prefix):-len(".seg")]))
    return paths


def _merge_run_prefix(partition: int, shard: Shard | None) -> str:
    base = f"MRG{partition}"
    return f"{base}_" if shard is None else f"{base}s{shard.index}_"


def merge_run_name(
    partition: int, shard: Shard | None, level: int, index: int
) -> str:
    """One intermediate run of the bounded-fan-in merge.

    Its own family — never ``RUN<i>_<digits>`` — so :func:`run_paths`
    (and through it the rebalancer's key sampling and the sort-run
    stage's checkpointed artifacts) cannot mistake a merge task's scratch
    for a sorted run.  Key-range shards of one partition merge
    concurrently, so each shard owns a sub-family.
    """
    return f"{_merge_run_prefix(partition, shard)}{level}_{index}"


def sweep_merge_runs(store: Store, partition: int, shard: Shard | None) -> None:
    """Delete every published intermediate run of one merge task.

    Called by the task before it merges (a killed attempt's leftovers)
    and when it ends, however it ends: intermediates never outlive the
    task that wrote them.  Unpublished ``.seg.tmp`` files are discarded
    by their writer, or by the driver's orphan sweep if it died.
    """
    prefix = _merge_run_prefix(partition, shard)
    for path in store.disk_dir(partition).glob(f"{prefix}*.seg"):
        path.unlink(missing_ok=True)


def bucket_spill_name(
    target: int, contributor: int, chunk: int | None = None
) -> str:
    """One contributor's bucketed spill file for one target partition.

    ``chunk`` is set when the partition pass ran under a spill threshold
    and flushed its groups incrementally.
    """
    base = f"BS{target}_from{contributor}"
    return base if chunk is None else f"{base}_c{chunk}"


def bucket_spill_paths(
    store: Store, partition: int, contributor: int
) -> List[Path]:
    """One contributor's spill files for ``partition``, chunks included.

    The unchunked base file and any ``_c<n>`` chunks are all valid
    inputs; chunks are ordered numerically so probe input order is
    deterministic.
    """
    paths: List[Path] = []
    base = store.path(partition, bucket_spill_name(partition, contributor))
    if base.exists():
        paths.append(base)
    prefix = f"BS{partition}_from{contributor}_c"
    chunks = [
        path for path in store.disk_dir(partition).glob(f"{prefix}*.seg")
        if path.name[len(prefix):-len(".seg")].isdigit()
    ]
    chunks.sort(key=lambda path: int(path.name[len(prefix):-len(".seg")]))
    paths.extend(chunks)
    return paths


# ----------------------------------------------------------- batch utilities

def rebatch(iterable: Iterable, size: int) -> Iterator[List]:
    """Chunk any iterable into lists of at most ``size`` items."""
    batch: List = []
    for item in iterable:
        batch.append(item)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def run_stream(path: Path) -> Iterator[RObject]:
    """Lazily stream one run file's objects (closable generator)."""
    rel = RRelationFile.open(path)
    try:
        yield from rel.iter_objects(BATCH_RECORDS)
    finally:
        rel.close()


def run_lower_bound(rel: RRelationFile, key: int) -> int:
    """Index of the first record in a sorted run with ``sptr >= key``.

    Binary search over the mapped records — O(log n) point reads — so a
    key-range shard starts reading at its own range instead of scanning
    (and discarding) the prefix owned by lower shards.
    """
    lo, hi = 0, len(rel)
    while lo < hi:
        mid = (lo + hi) // 2
        if rel.get(mid).sptr < key:
            lo = mid + 1
        else:
            hi = mid
    return lo
