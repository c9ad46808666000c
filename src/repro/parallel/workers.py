"""Stage kernels for the real-mmap parallel joins.

Each kernel is one partition's share of one :class:`~repro.parallel.
engine.stages.Stage`, operating purely on memory-mapped segment files.
Kernels are *thin*: every cross-cutting concern — fault injection, memory
metering, metrics registries, error classification — lives
once in the engine task wrapper (:func:`repro.parallel.engine.task.
run_task`); a kernel only moves records.  :func:`~repro.parallel.engine.
task.register_kernel` records each function under its name so the
executor can dispatch it by name through a :mod:`multiprocessing` pool
(CPython's GIL rules out thread parallelism for this workload, so — like
the paper's Rproc/Sproc design — parallelism is process-level, one worker
per partition).

All record movement is block-at-a-time: kernels consume decoded batches
(`iter_object_batches`), resolve pointers with the batched
:meth:`PointerMap.locate_many` / :meth:`offset_many`, dereference S through
:meth:`SRelationFile.dereference_many`, and append spills/runs/buckets via
``append_many`` — no per-record ``bytes()`` copies or struct calls.

Join output never crosses a process boundary.  Every pair-producing
kernel streams its pairs into its own mapped ``PAIRS`` segment (one
writer per file, so passes stay race-free by construction) and returns
only a :class:`~repro.parallel.engine.task.PairResult`
``(count, checksum, path)``; the parent maps the files back in and
materializes pairs lazily, if at all.

Every kernel is failure-safe: output segments are published only by the
atomic rename in their ``close()``, and every exception path *aborts*
(discards) the partially written outputs and releases the mmap/file
handles before re-raising — so a pass that dies mid-stream leaks nothing
and a retried attempt re-creates its outputs from scratch (``overwrite=
True`` on every create makes that legal).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.governor.watchdog import active_meter

from repro.core.records import RObject
from repro.joins.grace import order_preserving_bucket, refining_chain
from repro.parallel import vectorized
from repro.parallel.engine.task import (
    BATCH_RECORDS,
    CHECKSUM_MOD,
    RUN_SHARD_STRIDE,
    PairResult,
    PairSink,
    StageOutput,
    TaskSpec,
    bucket_spill_name,
    bucket_spill_paths,
    nl_spill_name,
    pairs_name,
    rebatch,
    register_kernel,
    rs_name,
    run_lower_bound,
    run_name,
    run_paths,
    run_stream,
)
from repro.storage.relation import BucketedRFile, RRelationFile
from repro.storage.segment import MappedSegment
from repro.storage.store import Store

__all__ = [
    "BATCH_RECORDS",
    "CHECKSUM_MOD",
    "PairResult",
    "StageOutput",
    "grace_partition",
    "grace_probe",
    "hybrid_hash_partition",
    "nested_loops_pass0",
    "nested_loops_pass1",
    "pairs_name",
    "sort_merge_merge_join",
    "sort_merge_partition",
    "sort_merge_runs",
]


def _phase_partner(i: int, t: int, disks: int) -> int:
    return (i + t) % disks


# ------------------------------------------------------------ nested loops

@register_kernel
def nested_loops_pass0(spec: TaskSpec) -> PairResult:
    """Scan R_i: join local references, spill the rest to the RP_i_j.

    ``plan.batch_records`` throttles the batch size — the governor's
    nested-loops degradation knob.
    """
    if spec.plan.kernel_mode == "vector":
        return vectorized.nested_loops_pass0(spec)
    disks, i, record_bytes = spec.disks, spec.partition, spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    with store.open_r(i) as r_rel, store.open_s(i) as s_rel:
        s_bytes = s_rel.segment.layout.record_bytes
        sink = PairSink(store.path(i, pairs_name("p0", i)), len(r_rel))
        spill = {
            j: RRelationFile.create(
                store.path(i, nl_spill_name(i, j)), max(1, len(r_rel)),
                record_bytes, overwrite=True,
            )
            for j in range(disks)
            if j != i
        }
        try:
            for batch in r_rel.iter_object_batches(batch_records):
                charged = len(batch) * record_bytes
                meter.charge(charged, "nested-loops R batch")
                located = pmap.locate_many([obj[1] for obj in batch])
                local_r: List[RObject] = []
                local_offsets: List[int] = []
                remote: Dict[int, List[RObject]] = {}
                for obj, (target, offset) in zip(batch, located):
                    if target == i:
                        local_r.append(obj)
                        local_offsets.append(offset)
                    else:
                        remote.setdefault(target, []).append(obj)
                meter.charge(
                    len(local_offsets) * s_bytes, "dereferenced S batch"
                )
                charged += len(local_offsets) * s_bytes
                sink.emit_joined(local_r, s_rel.dereference_many(local_offsets))
                for target, objects in remote.items():
                    spill[target].append_many(objects)
                meter.release(charged)
            for rel in spill.values():
                rel.close()
            return sink.close()
        except BaseException:
            for rel in spill.values():
                rel.abort()
            sink.abort()
            raise


@register_kernel
def nested_loops_pass1(spec: TaskSpec) -> PairResult:
    """Phases t = 1..D-1: join RP_i,offset(i,t) against that S partition.

    Rebalance axis ``records``: ``spec.shard`` restricts the
    kernel to the record range ``[lo, hi)`` of the phase spill files
    concatenated in phase order — every shard walks the same file list
    with the same global indexing, so the shard union is exactly the
    unsharded scan.
    """
    if spec.plan.kernel_mode == "vector":
        return vectorized.nested_loops_pass1(spec)
    disks, i, shard = spec.disks, spec.partition, spec.shard
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    partners = [_phase_partner(i, t, disks) for t in range(1, disks)]
    spill_paths = [store.path(i, nl_spill_name(i, j)) for j in partners]
    counts = [MappedSegment.record_count(path) for path in spill_paths]
    total = sum(counts)
    lo, hi = (0, total) if shard is None else (shard.lo, min(shard.hi, total))
    sink = PairSink(store.path(i, pairs_name("p1", i, shard)), hi - lo)
    base = 0
    try:
        for j, path, count in zip(partners, spill_paths, counts):
            start = max(0, lo - base)
            stop = min(count, hi - base)
            base += count
            if shard is not None and start >= stop:
                continue
            with RRelationFile.open(path) as spill, store.open_s(j) as s_rel:
                r_bytes = spill.segment.layout.record_bytes
                s_bytes = s_rel.segment.layout.record_bytes
                for batch in spill.iter_object_batches(
                    batch_records, start, stop
                ):
                    charged = len(batch) * (r_bytes + s_bytes)
                    meter.charge(charged, "nested-loops spill batch")
                    offsets = pmap.offset_many([obj[1] for obj in batch])
                    sink.emit_joined(batch, s_rel.dereference_many(offsets))
                    meter.release(charged)
        return sink.close()
    except BaseException:
        sink.abort()
        raise


# --------------------------------------------------------------- sort-merge

@register_kernel
def sort_merge_partition(spec: TaskSpec) -> int:
    """Passes 0 and 1 for one contributor: write the RS_j_from_i files."""
    if spec.plan.kernel_mode == "vector":
        return vectorized.sort_merge_partition(spec)
    disks, i, record_bytes = spec.disks, spec.partition, spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    with store.open_r(i) as r_rel:
        outputs = {
            j: RRelationFile.create(
                store.path(j, rs_name(j, i)), max(1, len(r_rel)),
                record_bytes, overwrite=True,
            )
            for j in range(disks)
        }
        moved = 0
        try:
            for batch in r_rel.iter_object_batches(batch_records):
                meter.charge(
                    len(batch) * record_bytes, "sort-merge partition batch"
                )
                located = pmap.locate_many([obj[1] for obj in batch])
                buckets: Dict[int, List[RObject]] = {}
                for obj, (target, _offset) in zip(batch, located):
                    buckets.setdefault(target, []).append(obj)
                for target, objects in buckets.items():
                    outputs[target].append_many(objects)
                    moved += len(objects)
                meter.release(len(batch) * record_bytes)
            for rel in outputs.values():
                rel.close()
        except BaseException:
            for rel in outputs.values():
                rel.abort()
            raise
    return moved


@register_kernel
def sort_merge_runs(spec: TaskSpec) -> int:
    """Cut one partition's inbound RS files into sorted runs on disk.

    The meter's charge always equals len(buffer) * record_bytes: extends
    charge, flushes release exactly what they wrote — so a shrunken
    ``irun`` directly lowers this stage's high-water mark at the cost of
    more runs (and, under a budget, more passes) for the merge stage.
    """
    if spec.plan.kernel_mode == "vector":
        return vectorized.sort_merge_runs(spec)
    disks, i, shard = spec.disks, spec.partition, spec.shard
    record_bytes = spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    meter = active_meter()
    irun = max(1, spec.plan.irun)
    # Stale runs are poison: the merge stage discovers runs by glob, so
    # leftovers from a previous attempt or plan (including torn-write
    # garbage at a run's final path) must be gone before this attempt
    # cuts its own.  Sharded cutters must NOT sweep — they would race
    # each other's fresh runs; the executor pre-cleans the partition
    # once before dispatching the shard tasks.
    if shard is None:
        for stale in run_paths(store, i):
            stale.unlink(missing_ok=True)
    # Shards namespace their run ids so every shard writes disjoint run
    # files; numeric sort over the combined ids reproduces shard order
    # then local order, i.e. the concatenated inbound order.
    run_base = 0 if shard is None else shard.index * RUN_SHARD_STRIDE
    buffer: List[RObject] = []
    run_id = 0
    inbound = 0

    def flush_run() -> None:
        nonlocal run_id
        if not buffer:
            return
        buffer.sort(key=lambda obj: obj.sptr)
        rel = RRelationFile.create(
            store.path(i, run_name(i, run_base + run_id)), len(buffer),
            record_bytes, overwrite=True,
        )
        try:
            rel.append_many(buffer)
        except BaseException:
            rel.abort()
            raise
        rel.close()
        run_id += 1
        meter.release(len(buffer) * record_bytes)
        buffer.clear()

    lo = 0 if shard is None else shard.lo
    hi = None if shard is None else shard.hi
    base = 0
    for contributor in range(disks):
        path = store.path(i, rs_name(i, contributor))
        count = MappedSegment.record_count(path)
        start = max(0, lo - base)
        stop = count if hi is None else min(count, hi - base)
        base += count
        if shard is not None and start >= stop:
            continue
        with RRelationFile.open(path) as rel:
            for batch in rel.iter_object_batches(batch_records, start, stop):
                inbound += len(batch)
                meter.charge(len(batch) * record_bytes, "sort-run buffer")
                buffer.extend(batch)
                while len(buffer) >= irun:
                    tail = buffer[irun:]
                    del buffer[irun:]
                    flush_run()
                    buffer.extend(tail)
    flush_run()
    return inbound


def _clipped_run_stream(path, klo: int, khi: int, batch_records: int):
    """Stream a sorted run's records with ``sptr`` in ``[klo, khi)``.

    Binary-seeks to the range start and stops at the first record past
    it, so a key-range shard's cost is proportional to its own range —
    never to the prefix owned by lower shards.
    """
    rel = RRelationFile.open(path)
    try:
        start = run_lower_bound(rel, klo)
        for batch in rel.iter_object_batches(batch_records, start):
            for obj in batch:
                if obj.sptr >= khi:
                    return
                yield obj
    finally:
        rel.close()


@register_kernel
def sort_merge_merge_join(spec: TaskSpec) -> PairResult:
    """Merge one partition's sorted runs and join against sequential S_i.

    A single run needs no heap: its batches are already in sptr order, so
    the per-record merge machinery (generator hops + key calls) is
    skipped entirely — the common case whenever a partition's inbound fits
    one initial run.

    Rebalance axis ``keys``: ``spec.shard`` carries an sptr
    key range ``[lo, hi)``.  Each shard merges *all* runs clipped to its
    range; the ranges tile the key space, so the shard union is the full
    merge (runs are sorted, so clipping preserves merge order).
    """
    if spec.plan.kernel_mode == "vector":
        return vectorized.sort_merge_merge_join(spec)
    i, shard, record_bytes = spec.partition, spec.shard, spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    paths = run_paths(store, i)
    capacity = sum(MappedSegment.record_count(path) for path in paths)
    sink = PairSink(store.path(i, pairs_name("sm", i, shard)), capacity)
    try:
        with store.open_s(i) as s_rel:
            s_bytes = s_rel.segment.layout.record_bytes
            batch_cost = record_bytes + s_bytes
            if shard is not None and paths:
                streams = [
                    _clipped_run_stream(
                        path, shard.lo, shard.hi, batch_records
                    )
                    for path in paths
                ]
                try:
                    merged = (
                        streams[0]
                        if len(streams) == 1
                        else heapq.merge(*streams, key=lambda o: o.sptr)
                    )
                    for batch in rebatch(merged, batch_records):
                        meter.charge(len(batch) * batch_cost, "merge batch")
                        offsets = pmap.offset_many([obj[1] for obj in batch])
                        sink.emit_joined(batch, s_rel.dereference_many(offsets))
                        meter.release(len(batch) * batch_cost)
                finally:
                    for stream in streams:
                        stream.close()
            elif len(paths) == 1:
                with RRelationFile.open(paths[0]) as rel:
                    for batch in rel.iter_object_batches(batch_records):
                        meter.charge(len(batch) * batch_cost, "merge batch")
                        offsets = pmap.offset_many([obj[1] for obj in batch])
                        sink.emit_joined(batch, s_rel.dereference_many(offsets))
                        meter.release(len(batch) * batch_cost)
            elif paths:
                streams = [run_stream(path) for path in paths]
                try:
                    merged = heapq.merge(*streams, key=lambda o: o.sptr)
                    for batch in rebatch(merged, batch_records):
                        meter.charge(len(batch) * batch_cost, "merge batch")
                        offsets = pmap.offset_many([obj[1] for obj in batch])
                        sink.emit_joined(batch, s_rel.dereference_many(offsets))
                        meter.release(len(batch) * batch_cost)
                finally:
                    for stream in streams:
                        stream.close()
        return sink.close()
    except BaseException:
        sink.abort()
        raise


# ------------------------------------------------------- grace / hybrid hash

def _spill_bucket_groups(
    store: Store,
    grouped: Dict[int, Dict[int, List[RObject]]],
    buckets: int,
    record_bytes: int,
    contributor: int,
    chunk: int | None,
) -> int:
    """Write accumulated bucket groups to one spill file per target.

    Shared by the grace and hybrid-hash partition kernels; the files are
    named by :func:`~repro.parallel.engine.task.bucket_spill_name`, which
    is also how the probe kernel finds them — producers and consumers
    agree on artifact names through that one scheme.
    """
    flushed = 0
    for target, bucket_groups in grouped.items():
        capacity = sum(len(objs) for objs in bucket_groups.values())
        spill = BucketedRFile.create(
            store.path(target, bucket_spill_name(target, contributor, chunk)),
            capacity, buckets, record_bytes, overwrite=True,
        )
        try:
            for bucket in sorted(bucket_groups):
                spill.append_bucket(bucket, bucket_groups[bucket])
                flushed += len(bucket_groups[bucket])
        except BaseException:
            spill.abort()
            raise
        spill.close()
    grouped.clear()
    return flushed


@register_kernel
def grace_partition(spec: TaskSpec) -> int:
    """Passes 0 and 1 for one contributor: hash into the BS_j_from_i files.

    All of one contributor's spill for one target lands in a single
    bucket-grouped :class:`BucketedRFile` (file creation dominates this
    pass when every (target, bucket) pair gets its own file).  By default
    the bucket groups are accumulated in memory over the whole scan — the
    probe side, where grace's memory bound actually lives, stays
    bucket-at-a-time.  Under a memory budget the governor passes a
    ``spill_threshold``: whenever that many objects are retained the
    groups are flushed to *chunked* spill files (``BS<j>_from<i>_c<n>``),
    bounding the partition pass at threshold + one batch.  The probe side
    reads base and chunk files alike, so the join output is identical.
    """
    if spec.plan.kernel_mode == "vector":
        return vectorized.grace_partition(spec)
    disks, i, record_bytes = spec.disks, spec.partition, spec.r_bytes
    buckets = spec.plan.buckets
    spill_threshold = spec.plan.spill_threshold
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    part_sizes = [pmap.partition_size(j) for j in range(disks)]
    grouped: Dict[int, Dict[int, List[RObject]]] = {}
    moved = 0
    retained = 0
    chunk_id = 0

    def flush_groups(chunk: int | None) -> int:
        nonlocal retained
        flushed = _spill_bucket_groups(
            store, grouped, buckets, record_bytes, i, chunk
        )
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    with store.open_r(i) as r_rel:
        for batch in r_rel.iter_object_batches(batch_records):
            meter.charge(len(batch) * record_bytes, "grace bucket groups")
            retained += len(batch)
            located = pmap.locate_many([obj[1] for obj in batch])
            for obj, (target, offset) in zip(batch, located):
                bucket = order_preserving_bucket(
                    offset, part_sizes[target], buckets
                )
                grouped.setdefault(target, {}).setdefault(bucket, []).append(obj)
            if spill_threshold is not None and retained >= spill_threshold:
                moved += flush_groups(chunk_id)
                chunk_id += 1
    if spill_threshold is None:
        moved += flush_groups(None)
    elif grouped:
        moved += flush_groups(chunk_id)
    return moved


@register_kernel
def hybrid_hash_partition(spec: TaskSpec) -> StageOutput:
    """Hybrid hash partitioning: join resident buckets on the fly.

    Like :func:`grace_partition`, but references hashing to the plan's
    *resident* buckets (``bucket < resident``) never touch a spill file —
    they are dereferenced against the target S partition and joined during
    the scan, exactly the r0-buckets-stay-home structure of the paper's
    hybrid hash (``joins/hybrid_hash.py``).  Non-resident buckets spill
    with the *full* bucket count, so the unchanged probe kernel reads
    them; the resident buckets are simply empty there.  With ``resident
    == 0`` this degenerates to grace partitioning — the partition stage's
    deepest memory rung.
    """
    if spec.plan.kernel_mode == "vector":
        return vectorized.hybrid_hash_partition(spec)
    disks, i, record_bytes = spec.disks, spec.partition, spec.r_bytes
    buckets = spec.plan.buckets
    resident = spec.plan.effective_resident_buckets()
    spill_threshold = spec.plan.spill_threshold
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    part_sizes = [pmap.partition_size(j) for j in range(disks)]
    grouped: Dict[int, Dict[int, List[RObject]]] = {}
    moved = 0
    retained = 0
    chunk_id = 0
    s_rels: Dict[int, object] = {}

    def open_s(target: int):
        if target not in s_rels:
            s_rels[target] = store.open_s(target)
        return s_rels[target]

    def flush_groups(chunk: int | None) -> int:
        nonlocal retained
        flushed = _spill_bucket_groups(
            store, grouped, buckets, record_bytes, i, chunk
        )
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    with store.open_r(i) as r_rel:
        sink = PairSink(store.path(i, pairs_name("hh", i)), len(r_rel))
        try:
            for batch in r_rel.iter_object_batches(batch_records):
                meter.charge(len(batch) * record_bytes, "hybrid bucket groups")
                located = pmap.locate_many([obj[1] for obj in batch])
                by_target: Dict[int, Tuple[List[RObject], List[int]]] = {}
                resident_count = 0
                for obj, (target, offset) in zip(batch, located):
                    bucket = order_preserving_bucket(
                        offset, part_sizes[target], buckets
                    )
                    if bucket < resident:
                        objs, offsets = by_target.setdefault(
                            target, ([], [])
                        )
                        objs.append(obj)
                        offsets.append(offset)
                        resident_count += 1
                    else:
                        grouped.setdefault(target, {}).setdefault(
                            bucket, []
                        ).append(obj)
                        retained += 1
                for target, (objs, offsets) in by_target.items():
                    s_rel = open_s(target)
                    s_bytes = s_rel.segment.layout.record_bytes
                    charged = len(objs) * s_bytes
                    meter.charge(charged, "resident S batch")
                    sink.emit_joined(objs, s_rel.dereference_many(offsets))
                    meter.release(charged)
                meter.release(resident_count * record_bytes)
                if spill_threshold is not None and retained >= spill_threshold:
                    moved += flush_groups(chunk_id)
                    chunk_id += 1
            if spill_threshold is None:
                moved += flush_groups(None)
            elif grouped:
                moved += flush_groups(chunk_id)
            result = sink.close()
        except BaseException:
            sink.abort()
            raise
        finally:
            for rel in s_rels.values():
                rel.close()
    return StageOutput(moved, result)


@register_kernel
def grace_probe(spec: TaskSpec) -> PairResult:
    """Probe passes for one partition: bucket table, ordered S access.

    Rebalance axis ``buckets``: ``spec.shard`` restricts the
    probe to the contiguous bucket range ``[lo, hi)``.  Buckets are
    independent units of work, so the shard union probes exactly the
    unsharded bucket sequence.
    """
    if spec.plan.kernel_mode == "vector":
        return vectorized.grace_probe(spec)
    disks, i, shard = spec.disks, spec.partition, spec.shard
    buckets, tsize = spec.plan.buckets, spec.plan.tsize
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    part_size = pmap.partition_size(i)
    bucket_lo = 0 if shard is None else shard.lo
    bucket_hi = buckets if shard is None else min(shard.hi, buckets)
    inbound: List[BucketedRFile] = []
    for contributor in range(disks):
        for path in bucket_spill_paths(store, i, contributor):
            inbound.append(BucketedRFile.open(path))
    capacity = sum(len(rel) for rel in inbound)
    sink = None
    try:
        sink = PairSink(store.path(i, pairs_name("probe", i, shard)), capacity)
        with store.open_s(i) as s_rel:
            s_bytes = s_rel.segment.layout.record_bytes
            for bucket in range(bucket_lo, bucket_hi):
                table: List[List[RObject]] = [[] for _ in range(tsize)]
                bucket_charged = 0
                for rel in inbound:
                    r_bytes = rel.segment.layout.record_bytes
                    for batch in rel.iter_bucket_batches(bucket, batch_records):
                        meter.charge(
                            len(batch) * r_bytes, "grace probe bucket"
                        )
                        bucket_charged += len(batch) * r_bytes
                        offsets = pmap.offset_many([obj[1] for obj in batch])
                        for obj, offset in zip(batch, offsets):
                            chain = refining_chain(
                                offset, part_size, buckets, tsize
                            )
                            table[chain].append(obj)
                # Emit in chain order but batched across chains: per-chain
                # emits average ~1 record, so chunking the whole bucket
                # keeps the dereference/append calls block-sized.  The
                # checksum and the multiset of pairs are order-independent,
                # so this matches the per-chain path exactly.
                ordered = [
                    obj for chain_objects in table for obj in chain_objects
                ]
                for chunk in rebatch(ordered, batch_records):
                    meter.charge(len(chunk) * s_bytes, "dereferenced S batch")
                    offsets = pmap.offset_many([obj[1] for obj in chunk])
                    sink.emit_joined(chunk, s_rel.dereference_many(offsets))
                    meter.release(len(chunk) * s_bytes)
                meter.release(bucket_charged)
        return sink.close()
    except BaseException:
        if sink is not None:
            sink.abort()
        raise
    finally:
        for rel in inbound:
            rel.close()
