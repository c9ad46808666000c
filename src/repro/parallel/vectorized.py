"""Vectorized stage-kernel bodies for the real-mmap parallel joins.

One numpy implementation per :mod:`repro.parallel.workers` kernel, with
identical signatures (one ``TaskSpec``) and bit-identical output:
same pair counts, same checksums, same segment bytes.  The scalar kernels
stay the semantic reference — every body here is a whole-array transcription
of its scalar twin, preserving

* **record order** everywhere it is observable: boolean-mask selection
  keeps encounter order, ``np.argsort(kind="stable")`` matches
  ``list.sort(key=...)``, and the chunked k-way merge reproduces
  ``heapq.merge`` stability (earlier run wins ties);
* **meter charges**: the same ``record_bytes``-denominated amounts at the
  same points, so the governor's predicted-vs-observed tolerance holds in
  either mode;
* **artifact layout**: spill/run/bucket files are created with the same
  names, capacities and record content, so a pass can crash in one mode
  and be retried in the other.

The kernels in :mod:`~repro.parallel.workers` dispatch here when their
spec's ``plan.kernel_mode`` is ``"vector"``; nothing in this module is
registered directly.

The data movement idiom throughout: mapped batches decode to three
compact u64 column copies (:meth:`RecordLayout.decode_columns`), pointers
resolve via :meth:`PointerMap.locate_array`, S dereferences are one
fancy-indexed gather over a single dtype view
(:meth:`SRelationFile.dereference_columns`), and pair emission writes one
``(n, 4)`` u64 block per batch (:meth:`PairSink.emit_arrays`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List

import numpy as np

from repro.governor.predict import merge_fanin
from repro.governor.watchdog import active_meter
from repro.obs.registry import active as _metrics
from repro.parallel.engine.task import (
    RUN_SHARD_STRIDE,
    PairResult,
    PairSink,
    StageOutput,
    TaskSpec,
    bucket_spill_name,
    bucket_spill_paths,
    merge_run_name,
    nl_spill_name,
    pairs_name,
    rs_name,
    run_lower_bound,
    run_name,
    run_paths,
    sweep_merge_runs,
)
from repro.storage.relation import BucketedRFile, RRelationFile
from repro.storage.segment import MappedSegment
from repro.storage.store import Store

__all__ = [
    "grace_partition",
    "grace_probe",
    "hybrid_hash_partition",
    "nested_loops_pass0",
    "nested_loops_pass1",
    "sort_merge_merge_join",
    "sort_merge_partition",
    "sort_merge_runs",
]


def _phase_partner(i: int, t: int, disks: int) -> int:
    return (i + t) % disks


def _targets_in_encounter_order(parts):
    """Distinct partition ids of ``parts``, ordered by first appearance.

    Matches the iteration order of the scalar kernels' ``dict.setdefault``
    grouping, which is observable wherever per-target work emits pairs.
    """
    uniq, first = np.unique(parts, return_index=True)
    return [int(t) for t in uniq[np.argsort(first, kind="stable")]]


# ------------------------------------------------------------ nested loops

def nested_loops_pass0(spec: TaskSpec) -> PairResult:
    """Scan R_i: join local references, spill the rest to the RP_i_j."""
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
            for rid, sptr, payload in r_rel.iter_column_batches(batch_records):
                charged = len(rid) * record_bytes
                meter.charge(charged, "nested-loops R batch")
                parts, offs = pmap.locate_array(sptr)
                local = parts == i
                n_local = int(local.sum())
                meter.charge(n_local * s_bytes, "dereferenced S batch")
                charged += n_local * s_bytes
                if n_local:
                    sid, value = s_rel.dereference_columns(offs[local])
                    sink.emit_arrays(rid[local], sid, payload[local], value)
                if n_local < len(rid):
                    remote = ~local
                    for target in _targets_in_encounter_order(parts[remote]):
                        mask = remote & (parts == target)
                        spill[target].append_columns(
                            rid[mask], sptr[mask], payload[mask]
                        )
                meter.release(charged)
            for rel in spill.values():
                rel.close()
            return sink.close()
        except BaseException:
            for rel in spill.values():
                rel.abort()
            sink.abort()
            raise


def nested_loops_pass1(spec: TaskSpec) -> PairResult:
    """Phases t = 1..D-1: join RP_i,offset(i,t) against that S partition."""
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
                for rid, sptr, payload in spill.iter_column_batches(
                    batch_records, start, stop
                ):
                    charged = len(rid) * (r_bytes + s_bytes)
                    meter.charge(charged, "nested-loops spill batch")
                    sid, value = s_rel.dereference_columns(
                        pmap.offset_array(sptr)
                    )
                    sink.emit_arrays(rid, sid, payload, value)
                    meter.release(charged)
        return sink.close()
    except BaseException:
        sink.abort()
        raise


# --------------------------------------------------------------- sort-merge

def sort_merge_partition(spec: TaskSpec) -> int:
    """Passes 0 and 1 for one contributor: write the RS_j_from_i files."""
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
            for rid, sptr, payload in r_rel.iter_column_batches(batch_records):
                meter.charge(
                    len(rid) * record_bytes, "sort-merge partition batch"
                )
                parts, _offs = pmap.locate_array(sptr)
                for target in _targets_in_encounter_order(parts):
                    mask = parts == target
                    outputs[target].append_columns(
                        rid[mask], sptr[mask], payload[mask]
                    )
                    moved += int(mask.sum())
                meter.release(len(rid) * record_bytes)
            for rel in outputs.values():
                rel.close()
        except BaseException:
            for rel in outputs.values():
                rel.abort()
            raise
    return moved


class _ColumnBuffer:
    """FIFO of (rid, sptr, payload) column chunks with exact-size takes.

    The vector stand-in for the sort-run stage's ``List[RObject]`` buffer:
    chunks queue up as they arrive and :meth:`take` cuts exactly ``n``
    records off the front (splitting a chunk when the boundary lands
    inside one), so runs are the same contiguous prefixes of the inbound
    stream the scalar kernel cuts.
    """

    def __init__(self) -> None:
        self._chunks: List[tuple] = []
        self.total = 0

    def extend(self, rid, sptr, payload) -> None:
        if len(rid):
            self._chunks.append((rid, sptr, payload))
            self.total += len(rid)

    def take(self, n: int) -> tuple:
        taken: List[tuple] = []
        need = n
        while need:
            rid, sptr, payload = self._chunks[0]
            if len(rid) <= need:
                taken.append(self._chunks.pop(0))
                need -= len(rid)
            else:
                taken.append((rid[:need], sptr[:need], payload[:need]))
                self._chunks[0] = (rid[need:], sptr[need:], payload[need:])
                need = 0
        self.total -= n
        return (
            np.concatenate([c[0] for c in taken]),
            np.concatenate([c[1] for c in taken]),
            np.concatenate([c[2] for c in taken]),
        )


def sort_merge_runs(spec: TaskSpec) -> int:
    """Cut one partition's inbound RS files into sorted runs on disk."""
    disks, i, shard = spec.disks, spec.partition, spec.shard
    record_bytes = spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    meter = active_meter()
    irun = max(1, spec.plan.irun)
    # Sharded cutters must not sweep stale runs (they would race each
    # other); the executor pre-cleans the partition before dispatch.
    if shard is None:
        for stale in run_paths(store, i):
            stale.unlink(missing_ok=True)
    run_base = 0 if shard is None else shard.index * RUN_SHARD_STRIDE
    buffer = _ColumnBuffer()
    run_id = 0
    inbound = 0

    def flush_run(count: int) -> None:
        nonlocal run_id
        if not count:
            return
        rid, sptr, payload = buffer.take(count)
        order = np.argsort(sptr, kind="stable")
        rel = RRelationFile.create(
            store.path(i, run_name(i, run_base + run_id)), count,
            record_bytes, overwrite=True,
        )
        try:
            rel.append_columns(rid[order], sptr[order], payload[order])
        except BaseException:
            rel.abort()
            raise
        rel.close()
        run_id += 1
        meter.release(count * record_bytes)

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
            for rid, sptr, payload in rel.iter_column_batches(
                batch_records, start, stop
            ):
                inbound += len(rid)
                meter.charge(len(rid) * record_bytes, "sort-run buffer")
                buffer.extend(rid, sptr, payload)
                while buffer.total >= irun:
                    flush_run(irun)
    flush_run(buffer.total)
    return inbound


class _RunCursor:
    """One sorted run's read cursor for the chunked k-way merge.

    Buffers at most one chunk of undelivered records (more only while
    this run is the tie on the merge bound); the file side is read with
    :meth:`RRelationFile.read_columns` so memory stays bounded by the
    chunk size, not the run length.

    With a key range ``[klo, khi)`` (the ``keys`` rebalance axis) each
    loaded chunk is masked to the range; because runs are sptr-sorted,
    once a chunk's tail reaches ``khi`` the rest of the file is out of
    range and the cursor reports exhausted.
    """

    def __init__(
        self,
        rel: RRelationFile,
        klo: int | None = None,
        khi: int | None = None,
    ) -> None:
        self.rel = rel
        self.length = len(rel)
        self.pos = 0  # file records loaded so far
        self.klo = klo
        self.khi = khi
        self.range_done = False  # key range exhausted before file end
        self.rid = self.sptr = self.payload = None
        if klo is not None:
            # Seek past lower shards' records instead of reading and
            # masking them away chunk by chunk.
            self.pos = run_lower_bound(rel, klo)

    @property
    def buffered(self) -> int:
        return 0 if self.sptr is None else len(self.sptr)

    @property
    def file_exhausted(self) -> bool:
        return self.range_done or self.pos >= self.length

    def load(self, chunk_records: int, meter, record_bytes: int) -> int:
        delivered = 0
        while not delivered and not self.file_exhausted:
            n = min(chunk_records, self.length - self.pos)
            rid, sptr, payload = self.rel.read_columns(self.pos, n)
            self.pos += n
            metrics = _metrics()
            if metrics.enabled:
                kind = self.rel.segment.kind
                metrics.count("storage.read.batches", 1, kind=kind)
                metrics.count("storage.read.records", n, kind=kind)
                metrics.count("storage.read.bytes", n * record_bytes, kind=kind)
            if self.klo is not None:
                if int(sptr[-1]) >= self.khi:
                    self.range_done = True
                keep = (sptr >= np.uint64(self.klo)) & (
                    sptr < np.uint64(self.khi)
                )
                if not keep.all():
                    rid, sptr, payload = rid[keep], sptr[keep], payload[keep]
                if not len(rid):
                    continue
            if self.buffered:
                self.rid = np.concatenate([self.rid, rid])
                self.sptr = np.concatenate([self.sptr, sptr])
                self.payload = np.concatenate([self.payload, payload])
            else:
                self.rid, self.sptr, self.payload = rid, sptr, payload
            meter.charge(len(rid) * record_bytes, "merge run chunk")
            delivered = len(rid)
        return delivered

    def take(self, n: int) -> tuple:
        out = (self.rid[:n], self.sptr[:n], self.payload[:n])
        if n >= self.buffered:
            self.rid = self.sptr = self.payload = None
        else:
            self.rid = self.rid[n:]
            self.sptr = self.sptr[n:]
            self.payload = self.payload[n:]
        return out


def sort_merge_merge_join(spec: TaskSpec) -> PairResult:
    """Merge one partition's sorted runs and join against sequential S_i.

    Multi-run merge is chunked k-way: each round computes the *bound* —
    the smallest last-buffered key among runs with unread file data — and
    everything strictly below it is provably complete in the buffers, so
    one stable argsort of those slices (concatenated in run order)
    reproduces ``heapq.merge``'s output order exactly, ties included.

    Under a memory budget the fan-in is bounded
    (:func:`~repro.governor.predict.merge_fanin`): while more runs remain
    than may be open at once, every ``fanin`` *consecutive* runs are
    merged into one intermediate run — the paper's multi-pass merge
    (§6.2).  Each merge is stable with ties going to the earlier run, and
    groups are consecutive, so the final pass sees the records in exactly
    the single-pass order.  The sort-run stage's runs are only ever read;
    intermediates are deleted once merged and swept however the task ends.
    """
    i, shard, record_bytes = spec.partition, spec.shard, spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    paths = run_paths(store, i)
    capacity = sum(MappedSegment.record_count(path) for path in paths)
    klo, khi = (None, None) if shard is None else (shard.lo, shard.hi)
    sink = PairSink(store.path(i, pairs_name("sm", i, shard)), capacity)
    sweep_merge_runs(store, i, shard)
    try:
        with store.open_s(i) as s_rel:
            s_bytes = s_rel.segment.layout.record_bytes
            batch_cost = record_bytes + s_bytes
            fanin = merge_fanin(
                spec.worker_mem_budget, batch_records, record_bytes, s_bytes
            )
            scratch: set = set()
            level = 0
            while fanin is not None and len(paths) > fanin:
                merged = []
                for lo in range(0, len(paths), fanin):
                    group = paths[lo:lo + fanin]
                    if len(group) == 1:
                        merged.extend(group)  # the odd run out rides along
                        continue
                    out = store.path(
                        i, merge_run_name(i, shard, level, len(merged))
                    )
                    _merge_group(
                        out, group, klo, khi, batch_records, record_bytes, meter
                    )
                    scratch.add(out)
                    merged.append(out)
                    for path in scratch.intersection(group):
                        path.unlink()
                paths = merged
                level += 1

            def emit(rid, sptr, payload) -> None:
                sid, value = s_rel.dereference_columns(
                    pmap.offset_array(sptr)
                )
                sink.emit_arrays(rid, sid, payload, value)

            if shard is None and len(paths) == 1:
                with RRelationFile.open(paths[0]) as rel:
                    for rid, sptr, payload in rel.iter_column_batches(
                        batch_records
                    ):
                        meter.charge(len(rid) * batch_cost, "merge batch")
                        emit(rid, sptr, payload)
                        meter.release(len(rid) * batch_cost)
            elif paths:
                with _open_cursors(paths, klo, khi) as cursors:
                    _merge_runs(
                        cursors, batch_records, record_bytes, s_bytes,
                        meter, emit,
                    )
        return sink.close()
    except BaseException:
        sink.abort()
        raise
    finally:
        sweep_merge_runs(store, i, shard)


@contextmanager
def _open_cursors(paths, klo: int | None, khi: int | None):
    """Open one :class:`_RunCursor` per run; close them all on exit."""
    cursors: List[_RunCursor] = []
    try:
        for path in paths:
            cursors.append(_RunCursor(RRelationFile.open(path), klo, khi))
        yield cursors
    finally:
        for cursor in cursors:
            cursor.rel.close()


def _merge_group(
    out_path,
    group,
    klo: int | None,
    khi: int | None,
    batch_records: int,
    record_bytes: int,
    meter,
) -> None:
    """Merge ``group``'s runs into one published run at ``out_path``."""
    out = RRelationFile.create(
        out_path,
        max(1, sum(MappedSegment.record_count(path) for path in group)),
        record_bytes, overwrite=True,
    )
    try:
        with _open_cursors(group, klo, khi) as cursors:
            _merge_runs(
                cursors, batch_records, record_bytes, 0, meter,
                out.append_columns,
            )
    except BaseException:
        out.abort()
        raise
    out.close()


def _merge_runs(
    cursors: List[_RunCursor],
    batch_records: int,
    record_bytes: int,
    s_bytes: int,
    meter,
    emit,
) -> None:
    """Drain the run cursors in global key order, emitting block-at-a-time."""
    while True:
        for cursor in cursors:
            if not cursor.buffered and not cursor.file_exhausted:
                cursor.load(batch_records, meter, record_bytes)
        if not any(cursor.buffered for cursor in cursors):
            return
        bounds = [
            int(cursor.sptr[-1])
            for cursor in cursors
            if not cursor.file_exhausted
        ]
        bound = min(bounds) if bounds else None
        taken: List[tuple] = []
        for cursor in cursors:
            if not cursor.buffered:
                continue
            if bound is None:
                n = cursor.buffered
            else:
                n = int(np.searchsorted(cursor.sptr, bound, side="left"))
            if n:
                taken.append(cursor.take(n))
        if not taken:
            # Every buffered key ties the bound; deepen the tying runs so
            # all equal keys are in memory before they are ordered.
            for cursor in cursors:
                if not cursor.file_exhausted and (
                    not cursor.buffered or int(cursor.sptr[-1]) == bound
                ):
                    cursor.load(batch_records, meter, record_bytes)
            continue
        rid = np.concatenate([t[0] for t in taken])
        sptr = np.concatenate([t[1] for t in taken])
        payload = np.concatenate([t[2] for t in taken])
        order = np.argsort(sptr, kind="stable")
        for lo in range(0, len(order), batch_records):
            block = order[lo:lo + batch_records]
            meter.charge(len(block) * s_bytes, "merge batch")
            emit(rid[block], sptr[block], payload[block])
            meter.release(len(block) * (record_bytes + s_bytes))


# ------------------------------------------------------- grace / hybrid hash

def _flush_bucket_chunks(
    store: Store,
    grouped: Dict[int, List[tuple]],
    buckets: int,
    record_bytes: int,
    contributor: int,
    chunk: int | None,
) -> int:
    """Write accumulated per-target column chunks as bucketed spill files.

    The vector twin of the scalar ``_spill_bucket_groups``: one stable
    argsort groups each target's records bucket-contiguously (encounter
    order within a bucket preserved), and the whole blob lands in one
    :meth:`BucketedRFile.append_buckets_packed` — byte-identical segment
    and directory, one slice write instead of one per bucket.
    """
    flushed = 0
    for target, chunks in grouped.items():
        rid = np.concatenate([c[0] for c in chunks])
        sptr = np.concatenate([c[1] for c in chunks])
        payload = np.concatenate([c[2] for c in chunks])
        bucket = np.concatenate([c[3] for c in chunks])
        order = np.argsort(bucket, kind="stable")
        counts = np.bincount(bucket.astype(np.int64), minlength=buckets)
        spill = BucketedRFile.create(
            store.path(target, bucket_spill_name(target, contributor, chunk)),
            len(rid), buckets, record_bytes, overwrite=True,
        )
        try:
            spill.append_buckets_packed(
                spill.segment.layout.pack_columns(
                    rid[order], sptr[order], payload[order]
                ),
                [int(c) for c in counts],
            )
        except BaseException:
            spill.abort()
            raise
        spill.close()
        flushed += len(rid)
    grouped.clear()
    return flushed


def _hash_buckets(part_sizes, buckets: int, parts, offs):
    """:func:`repro.joins.grace.order_preserving_bucket` over u64 columns.

    ``part_sizes`` is the u64 array of S-partition sizes ``parts``
    indexes; the result is monotone in ``offs`` within a target, which
    is what lets the probe read S sequentially.
    """
    return np.minimum(
        offs * np.uint64(buckets) // part_sizes[parts],
        np.uint64(buckets - 1),
    )


def grace_partition(spec: TaskSpec) -> int:
    """Passes 0 and 1 for one contributor: hash into the BS_j_from_i files."""
    disks, i, record_bytes = spec.disks, spec.partition, spec.r_bytes
    buckets = spec.plan.buckets
    spill_threshold = spec.plan.spill_threshold
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    part_sizes = np.asarray(
        [pmap.partition_size(j) for j in range(disks)], dtype=np.uint64
    )
    grouped: Dict[int, List[tuple]] = {}
    moved = 0
    retained = 0
    chunk_id = 0

    def flush_groups(chunk: int | None) -> int:
        nonlocal retained
        flushed = _flush_bucket_chunks(
            store, grouped, buckets, record_bytes, i, chunk
        )
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    with store.open_r(i) as r_rel:
        for rid, sptr, payload in r_rel.iter_column_batches(batch_records):
            meter.charge(len(rid) * record_bytes, "grace bucket groups")
            retained += len(rid)
            parts, offs = pmap.locate_array(sptr)
            bucket = _hash_buckets(part_sizes, buckets, parts, offs)
            for target in _targets_in_encounter_order(parts):
                mask = parts == target
                grouped.setdefault(target, []).append(
                    (rid[mask], sptr[mask], payload[mask], bucket[mask])
                )
            if spill_threshold is not None and retained >= spill_threshold:
                moved += flush_groups(chunk_id)
                chunk_id += 1
    if spill_threshold is None:
        moved += flush_groups(None)
    elif grouped:
        moved += flush_groups(chunk_id)
    return moved


def hybrid_hash_partition(spec: TaskSpec) -> StageOutput:
    """Hybrid hash partitioning: join resident buckets on the fly."""
    disks, i, record_bytes = spec.disks, spec.partition, spec.r_bytes
    buckets = spec.plan.buckets
    resident = spec.plan.effective_resident_buckets()
    spill_threshold = spec.plan.spill_threshold
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    part_sizes = np.asarray(
        [pmap.partition_size(j) for j in range(disks)], dtype=np.uint64
    )
    grouped: Dict[int, List[tuple]] = {}
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
        flushed = _flush_bucket_chunks(
            store, grouped, buckets, record_bytes, i, chunk
        )
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    with store.open_r(i) as r_rel:
        sink = PairSink(store.path(i, pairs_name("hh", i)), len(r_rel))
        try:
            for rid, sptr, payload in r_rel.iter_column_batches(batch_records):
                meter.charge(len(rid) * record_bytes, "hybrid bucket groups")
                parts, offs = pmap.locate_array(sptr)
                bucket = _hash_buckets(part_sizes, buckets, parts, offs)
                home = bucket < resident
                resident_count = int(home.sum())
                if resident_count:
                    for target in _targets_in_encounter_order(parts[home]):
                        mask = home & (parts == target)
                        s_rel = open_s(target)
                        s_bytes = s_rel.segment.layout.record_bytes
                        charged = int(mask.sum()) * s_bytes
                        meter.charge(charged, "resident S batch")
                        sid, value = s_rel.dereference_columns(offs[mask])
                        sink.emit_arrays(rid[mask], sid, payload[mask], value)
                        meter.release(charged)
                if resident_count < len(rid):
                    out = ~home
                    for target in _targets_in_encounter_order(parts[out]):
                        mask = out & (parts == target)
                        grouped.setdefault(target, []).append(
                            (rid[mask], sptr[mask], payload[mask], bucket[mask])
                        )
                    retained += len(rid) - resident_count
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


def grace_probe(spec: TaskSpec) -> PairResult:
    """Probe passes for one partition: bucket table, ordered S access.

    The scalar kernel's ``TSIZE`` chain table is one stable argsort by
    refining chain: chains fill in inbound order and flatten in chain
    order, which is exactly the sorted-by-chain permutation.
    """
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
                chunks: List[tuple] = []
                bucket_charged = 0
                for rel in inbound:
                    r_bytes = rel.segment.layout.record_bytes
                    rid, sptr, payload = rel.read_bucket_columns(bucket)
                    if not len(rid):
                        continue
                    meter.charge(len(rid) * r_bytes, "grace probe bucket")
                    bucket_charged += len(rid) * r_bytes
                    chunks.append((rid, sptr, payload))
                if chunks:
                    rid = np.concatenate([c[0] for c in chunks])
                    sptr = np.concatenate([c[1] for c in chunks])
                    payload = np.concatenate([c[2] for c in chunks])
                    offs = pmap.offset_array(sptr)
                    chain = (
                        offs * np.uint64(buckets * tsize) // part_size
                    ) % np.uint64(tsize)
                    order = np.argsort(chain, kind="stable")
                    for lo in range(0, len(order), batch_records):
                        block = order[lo:lo + batch_records]
                        meter.charge(len(block) * s_bytes, "dereferenced S batch")
                        sid, value = s_rel.dereference_columns(offs[block])
                        sink.emit_arrays(rid[block], sid, payload[block], value)
                        meter.release(len(block) * s_bytes)
                meter.release(bucket_charged)
        return sink.close()
    except BaseException:
        if sink is not None:
            sink.abort()
        raise
    finally:
        for rel in inbound:
            rel.close()
