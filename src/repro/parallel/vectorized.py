"""Vectorized stage-kernel bodies for the real-mmap parallel joins.

One numpy implementation per :mod:`repro.parallel.workers` kernel, with
identical signatures (one ``TaskSpec``) and bit-identical output:
same pair counts, same checksums, same segment bytes.  The scalar kernels
stay the semantic reference — every body here is a whole-array transcription
of its scalar twin, preserving

* **record order** everywhere it is observable: grouping keeps encounter
  order within a group and visits groups by first appearance, the stable
  orders match ``list.sort(key=...)``, and the chunked k-way merge
  reproduces ``heapq.merge`` stability (earlier run wins ties);
* **meter charges**: the same ``record_bytes``-denominated amounts at the
  same points, so the governor's predicted-vs-observed tolerance holds in
  either mode;
* **artifact layout**: spill/run/bucket files are created with the same
  names, capacities and record content, so a pass can crash in one mode
  and be retried in the other.

The kernels in :mod:`~repro.parallel.workers` dispatch here when their
spec's ``plan.kernel_mode`` is ``"vector"``; nothing in this module is
registered directly.

The data movement idiom throughout: a batch is one O(n) grouping plus one
gather.  Pointers resolve with one ``searchsorted``
(:meth:`PointerMap.locate_array`); a batch groups by destination with one
radix sort (:func:`_group`); stable sorts on ``sptr`` are one SIMD sort
of composite keys (:func:`_stable_order`).  A record that only passes
through — the nested-loops spill, the sort-merge partition, the sort-run
cut — moves as its stored bytes (:meth:`RRelationFile.
iter_record_batches` in, one gather, ``append_batch`` out), never decoded
and re-packed.  Records joined in the batch, or held for a later flush
(the grace/hybrid bucket groups), are compact u64 columns
(:meth:`RecordLayout.decode_columns`, 32 B/record held); S dereferences
are one fancy-indexed gather (:meth:`SRelationFile.dereference_columns`),
and pair emission writes one ``(n, 4)`` u64 block per batch
(:meth:`PairSink.emit_arrays`).
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
from repro.storage.layout import RecordLayout
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


def _group(keys, n: int):
    """Group a batch by its integer ``keys`` in ``[0, n)``, stably.

    One radix sort — numpy's stable sort of keys narrowed to
    ``np.min_scalar_type(n - 1)``, 8 or 16 bits for every caller — plus
    one ``bincount``.  Returns ``(order, bounds, groups)``: group ``g``'s
    rows, in encounter order, are ``order[bounds[g]:bounds[g + 1]]``, and
    ``groups`` lists the non-empty groups by first appearance — the
    scalar kernels' ``dict.setdefault`` order, observable wherever
    per-group work emits pairs.
    """
    narrow = keys.astype(np.min_scalar_type(n - 1))
    order = np.argsort(narrow, kind="stable")
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(narrow, minlength=n), out=bounds[1:])
    present = np.flatnonzero(np.diff(bounds))
    groups = present[np.argsort(order[bounds[present]])]
    return order, bounds, groups.tolist()


def _stable_order(keys):
    """``np.argsort(keys, kind="stable")`` of u64 keys, as one SIMD sort.

    Each key is shifted left by ``bits``, the width of a row index, and
    tagged with its row.  The tagged keys are distinct, so numpy's
    unstable vectorized sort has exactly one answer — the stable
    permutation.  Keys too wide to spare ``bits`` take the stable argsort.
    """
    n = len(keys)
    bits = max(n - 1, 0).bit_length()
    if n < 2 or int(keys.max()).bit_length() + bits > 64:
        return np.argsort(keys, kind="stable")
    tagged = keys << np.uint64(bits)
    tagged |= np.arange(n, dtype=np.uint64)
    tagged.sort()
    return (tagged & np.uint64((1 << bits) - 1)).astype(np.intp)


# ------------------------------------------------------------ nested loops

def nested_loops_pass0(spec: TaskSpec) -> PairResult:
    """Scan R_i: join local references, spill the rest to the RP_i_j."""
    disks, i, record_bytes = spec.disks, spec.partition, spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    with store.open_r(i) as r_rel, store.open_s(i) as s_rel:
        fields = r_rel.segment.layout.np_dtype
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
            for records in r_rel.iter_record_batches(batch_records):
                charged = len(records) * record_bytes
                meter.charge(charged, "nested-loops R batch")
                header = records.view(fields)
                parts, offs = pmap.locate_array(header["f1"])
                order, bounds, targets = _group(parts, disks)
                n_local = int(bounds[i + 1] - bounds[i])
                meter.charge(n_local * s_bytes, "dereferenced S batch")
                charged += n_local * s_bytes
                for target in targets:
                    rows = order[bounds[target]:bounds[target + 1]]
                    if target == i:
                        sid, value = s_rel.dereference_columns(offs[rows])
                        sink.emit_arrays(
                            header["f0"][rows], sid, header["f2"][rows], value
                        )
                    else:
                        spill[target].segment.append_batch(records[rows])
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
        fields = r_rel.segment.layout.np_dtype
        outputs = {
            j: RRelationFile.create(
                store.path(j, rs_name(j, i)), max(1, len(r_rel)),
                record_bytes, overwrite=True,
            )
            for j in range(disks)
        }
        moved = 0
        try:
            for records in r_rel.iter_record_batches(batch_records):
                meter.charge(
                    len(records) * record_bytes, "sort-merge partition batch"
                )
                parts, _offs = pmap.locate_array(records.view(fields)["f1"])
                order, bounds, targets = _group(parts, disks)
                routed = records[order]
                for target in targets:
                    outputs[target].segment.append_batch(
                        routed[bounds[target]:bounds[target + 1]]
                    )
                moved += len(records)
                meter.release(len(records) * record_bytes)
            for rel in outputs.values():
                rel.close()
        except BaseException:
            for rel in outputs.values():
                rel.abort()
            raise
    return moved


def sort_merge_runs(spec: TaskSpec) -> int:
    """Cut one partition's inbound RS files into sorted runs on disk.

    Inbound records are copied whole into one run buffer of ``irun``
    slots; each full buffer — the same contiguous prefix of the inbound
    stream the scalar kernel cuts — is written in stable ``sptr`` order.
    """
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
    lo = 0 if shard is None else shard.lo
    hi = None if shard is None else shard.hi
    spans = []
    base = 0
    for contributor in range(disks):
        path = store.path(i, rs_name(i, contributor))
        count = MappedSegment.record_count(path)
        start = max(0, lo - base)
        stop = count if hi is None else min(count, hi - base)
        base += count
        if shard is None or start < stop:
            spans.append((path, start, stop))
    run = np.empty(
        min(irun, sum(stop - start for _path, start, stop in spans)),
        dtype=(np.void, record_bytes),
    )
    fields = RecordLayout(record_bytes).np_dtype
    fill = run_id = inbound = 0

    def flush_run() -> None:
        nonlocal fill, run_id
        if not fill:
            return
        records = run[:fill]
        order = _stable_order(records.view(fields)["f1"])
        rel = RRelationFile.create(
            store.path(i, run_name(i, run_base + run_id)), fill,
            record_bytes, overwrite=True,
        )
        try:
            rel.segment.append_batch(records[order])
        except BaseException:
            rel.abort()
            raise
        rel.close()
        run_id += 1
        meter.release(fill * record_bytes)
        fill = 0

    for path, start, stop in spans:
        with RRelationFile.open(path) as rel:
            for records in rel.iter_record_batches(batch_records, start, stop):
                inbound += len(records)
                meter.charge(len(records) * record_bytes, "sort-run buffer")
                while len(records):
                    take = min(irun - fill, len(records))
                    run[fill:fill + take] = records[:take]
                    fill += take
                    records = records[take:]
                    if fill == irun:
                        flush_run()
    flush_run()
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
    one stable sort of those slices (concatenated in run order)
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
        order = _stable_order(sptr)
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

    The vector twin of the scalar ``_spill_bucket_groups``: one
    :func:`_group` by bucket lays each target's records out
    bucket-contiguously (encounter order within a bucket preserved), and
    the whole blob lands in one :meth:`BucketedRFile.append_buckets_packed`
    — byte-identical segment and directory, one slice write instead of
    one per bucket.
    """
    flushed = 0
    for target, chunks in grouped.items():
        rid = np.concatenate([c[0] for c in chunks])
        sptr = np.concatenate([c[1] for c in chunks])
        payload = np.concatenate([c[2] for c in chunks])
        order, bounds, _ = _group(
            np.concatenate([c[3] for c in chunks]), buckets
        )
        spill = BucketedRFile.create(
            store.path(target, bucket_spill_name(target, contributor, chunk)),
            len(rid), buckets, record_bytes, overwrite=True,
        )
        try:
            spill.append_buckets_packed(
                spill.segment.layout.pack_columns(
                    rid[order], sptr[order], payload[order]
                ),
                np.diff(bounds).tolist(),
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
            order, bounds, targets = _group(parts, disks)
            for target in targets:
                rows = order[bounds[target]:bounds[target + 1]]
                grouped.setdefault(target, []).append(
                    (rid[rows], sptr[rows], payload[rows], bucket[rows])
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
                # Key 2·target + spilled: one grouping splits resident
                # from spilled rows and orders each kind's targets by
                # their first appearance among that kind.
                order, bounds, groups = _group(
                    2 * parts + (bucket >= resident), 2 * disks
                )
                spilled = 0
                for group in groups:
                    target = group >> 1
                    rows = order[bounds[group]:bounds[group + 1]]
                    if group & 1:
                        grouped.setdefault(target, []).append(
                            (rid[rows], sptr[rows], payload[rows], bucket[rows])
                        )
                        spilled += len(rows)
                        continue
                    s_rel = open_s(target)
                    charged = len(rows) * s_rel.segment.layout.record_bytes
                    meter.charge(charged, "resident S batch")
                    sid, value = s_rel.dereference_columns(offs[rows])
                    sink.emit_arrays(rid[rows], sid, payload[rows], value)
                    meter.release(charged)
                retained += spilled
                meter.release((len(rid) - spilled) * record_bytes)
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

    The scalar kernel's ``TSIZE`` chain table is one :func:`_group` by
    refining chain: chains fill in inbound order and flatten in chain
    order, which is exactly the stably-sorted-by-chain permutation.
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
                    order = _group(chain, tsize)[0]
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
