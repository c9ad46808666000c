"""Stage kernels for the real-mmap parallel joins.

Each kernel is one partition's share of one :class:`~repro.parallel.
engine.stages.Stage`, operating purely on memory-mapped segment files,
and is registered by name (:func:`~repro.parallel.engine.task.
register_kernel`) so the executor can dispatch it through a
:mod:`multiprocessing` pool — CPython's GIL rules out thread parallelism
for this workload, so, like the paper's Rproc/Sproc design, parallelism
is process-level, one worker per partition.  Kernels are *thin*: fault
injection, memory metering, metrics and error classification live once
in :func:`~repro.parallel.engine.task.run_task`; a kernel only moves
records.  What a kernel preserves is observable and pinned by tests:

* **record order**: grouping keeps encounter order within a group and
  visits groups by first appearance, the stable orders match
  ``list.sort(key=...)``, and the chunked k-way merge reproduces
  ``heapq.merge`` stability (earlier run wins ties);
* **meter charges**: ``record_bytes``-denominated amounts at the points
  :func:`~repro.governor.predict.predict_footprint` prices;
* **artifact layout**: spill/run/bucket files have fixed names,
  capacities and record content, so a retried pass re-creates exactly
  what a crashed attempt would have published.

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

Join output never crosses a process boundary: every pair-producing
kernel streams into its own mapped ``PAIRS`` segment and returns only a
:class:`~repro.parallel.engine.task.PairResult`.  Every kernel is
failure-safe: outputs are published only by the atomic rename in their
``close()``, and every exception path aborts the partial outputs before
re-raising, so a retried attempt re-creates them from scratch.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Dict, List, NamedTuple

import numpy as np

from repro.governor.predict import merge_fanin
from repro.governor.watchdog import active_meter
from repro.obs.registry import active as _metrics
from repro.parallel.engine.rebalance import key_sample_positions
from repro.parallel.engine.task import (
    PairResult,
    PairSink,
    RunCut,
    StageOutput,
    TaskSpec,
    bucket_spill_name,
    bucket_spill_paths,
    clear_stale_runs,
    merge_run_name,
    nl_spill_name,
    pairs_name,
    register_kernel,
    rs_name,
    run_lower_bound,
    run_name,
    run_paths,
    sort_run_spans,
    sweep_merge_runs,
)
from repro.storage.layout import RecordLayout
from repro.storage.relation import BucketedRFile, RRelationFile, SortedRunsFile
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
    ``groups`` lists the non-empty groups by first appearance — a
    ``dict.setdefault`` grouping's order, observable wherever per-group
    work emits pairs.
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

@register_kernel
def nested_loops_pass0(spec: TaskSpec) -> PairResult:
    """Scan R_i: join local references, spill the rest to the RP_i_j.

    ``plan.batch_records`` throttles the batch size — the governor's
    nested-loops degradation knob.
    """
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


@register_kernel
def nested_loops_pass1(spec: TaskSpec) -> PairResult:
    """Phases t = 1..D-1: join RP_i,offset(i,t) against that S partition.

    Rebalance axis ``records``: ``spec.shard`` restricts the kernel to
    the record range ``[lo, hi)`` of the phase spill files concatenated
    in phase order — every shard walks the same file list with the same
    global indexing, so the shard union is exactly the unsharded scan.
    """
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

@register_kernel
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


@register_kernel
def sort_merge_runs(spec: TaskSpec) -> RunCut:
    """Cut one partition's inbound RS files into sorted runs on disk.

    Inbound records are copied whole into one run buffer of ``irun``
    slots; each full buffer — the next contiguous ``irun`` records of the
    inbound stream — is appended in stable ``sptr`` order as the next
    extent of this task's one RUN segment (only the last is short), and
    its keys at :func:`key_sample_positions` go back to the driver, which
    plans key-range shards without opening a run.  The meter holds
    exactly the buffered records, so a shrunken ``irun`` directly lowers
    this stage's high-water mark at the cost of more runs (and, under a
    budget, more passes) for the merge stage.
    """
    i, shard, record_bytes = spec.partition, spec.shard, spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    meter = active_meter()
    irun = max(1, spec.plan.irun)
    clear_stale_runs(store, i, shard)
    spans = sort_run_spans(store, spec)
    total = sum(stop - start for _path, start, stop in spans)
    out = SortedRunsFile.create(
        store.path(i, run_name(i, shard)), max(1, total), irun,
        record_bytes, overwrite=True,
    )
    run = np.empty(min(irun, total), dtype=(np.void, record_bytes))
    fields = RecordLayout(record_bytes).np_dtype
    samples: List[List[int]] = []
    fill = inbound = 0

    def flush_run() -> None:
        nonlocal fill
        if not fill:
            return
        records = run[:fill]
        keys = records.view(fields)["f1"]
        order = _stable_order(keys)
        out.append_run(records[order])
        samples.append(keys[order[key_sample_positions(fill)]].tolist())
        meter.release(fill * record_bytes)
        fill = 0

    try:
        for path, start, stop in spans:
            with RRelationFile.open(path) as rel:
                for records in rel.iter_record_batches(
                    batch_records, start, stop
                ):
                    inbound += len(records)
                    meter.charge(
                        len(records) * record_bytes, "sort-run buffer"
                    )
                    while len(records):
                        take = min(irun - fill, len(records))
                        run[fill:fill + take] = records[:take]
                        fill += take
                        records = records[take:]
                        if fill == irun:
                            flush_run()
        flush_run()
    except BaseException:
        out.abort()
        raise
    out.close()
    return RunCut(inbound, samples)


class Run(NamedTuple):
    """One sorted run: records ``[lo, hi)`` of an open relation."""

    rel: RRelationFile
    lo: int
    hi: int


def _segment_runs(rel: RRelationFile) -> List[Run]:
    """A run file's runs: a sort-run segment's extents, or one MRG run."""
    if isinstance(rel, SortedRunsFile):
        return [Run(rel, lo, hi) for lo, hi in rel.extents()]
    return [Run(rel, 0, len(rel))]


def open_runs(store: Store, partition: int, opened: ExitStack) -> List[Run]:
    """Open each of a partition's RUN segments once, into ``opened``;
    return every run they hold, in inbound order."""
    return [
        run
        for path in run_paths(store, partition)
        for run in _segment_runs(
            opened.enter_context(SortedRunsFile.open(path))
        )
    ]


class _RunCursor:
    """One sorted run's read cursor for the chunked k-way merge.

    Buffers at most one chunk of undelivered records, loaded only once
    the previous one is spent; the run is read with
    :meth:`RRelationFile.read_columns` so memory stays bounded by the
    chunk size, not the run length.

    With a key range ``[klo, khi)`` (the ``keys`` rebalance axis) each
    loaded chunk is masked to the range; because runs are sptr-sorted,
    once a chunk's tail reaches ``khi`` the rest of the run is out of
    range and the cursor reports exhausted.
    """

    def __init__(
        self,
        run: Run,
        klo: int | None = None,
        khi: int | None = None,
    ) -> None:
        self.rel = run.rel
        self.pos = run.lo  # records loaded so far end here
        self.end = run.hi
        self.klo = klo
        self.khi = khi
        self.range_done = False  # key range exhausted before run end
        self.rid = self.sptr = self.payload = None
        if klo is not None:
            # Seek past lower shards' records instead of reading and
            # masking them away chunk by chunk.
            self.pos = run_lower_bound(run.rel, klo, run.lo, run.hi)

    @property
    def buffered(self) -> int:
        return 0 if self.sptr is None else len(self.sptr)

    @property
    def file_exhausted(self) -> bool:
        return self.range_done or self.pos >= self.end

    def load(self, chunk_records: int, meter, record_bytes: int) -> int:
        delivered = 0
        while not delivered and not self.file_exhausted:
            n = min(chunk_records, self.end - self.pos)
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


@register_kernel
def sort_merge_merge_join(spec: TaskSpec) -> PairResult:
    """Merge one partition's sorted runs and join against sequential S_i.

    Each RUN segment is opened once; its runs are extents, one cursor
    each.  Multi-run merge is chunked k-way: each round computes the
    *bound* — the smallest last-buffered key among runs with unread data
    — and everything strictly below it is provably complete in the
    buffers, so one stable sort of those slices (concatenated in run
    order) reproduces ``heapq.merge``'s output order exactly, ties
    included.  When every buffered key ties the bound, the earliest run
    holding it streams its tied prefix alone (:func:`_merge_runs`), so a
    hot key never pulls its whole tie group into memory.

    Rebalance axis ``keys``: ``spec.shard`` carries an sptr key range
    ``[lo, hi)``.  Each shard merges *all* runs clipped to its range; the
    ranges tile the key space, so the shard union is the full merge.

    Under a memory budget the fan-in is bounded
    (:func:`~repro.governor.predict.merge_fanin`): while more runs remain
    than may be open at once, every ``fanin`` *consecutive* runs are
    merged into one intermediate run — the paper's multi-pass merge
    (§6.2).  Each merge is stable with ties going to the earlier run, and
    groups are consecutive, so the final pass sees the records in exactly
    the single-pass order.  The sort-run stage's segments are only ever
    read; intermediates are deleted once merged and swept however the
    task ends.
    """
    i, shard = spec.partition, spec.shard
    store = spec.open_store()
    sweep_merge_runs(store, i, shard)
    try:
        with ExitStack() as opened:
            runs = open_runs(store, i, opened)
            sink = PairSink(
                store.path(i, pairs_name("sm", i, shard)),
                sum(run.hi - run.lo for run in runs),
            )
            try:
                with store.open_s(i) as s_rel:
                    _merge_join(spec, store, opened, runs, s_rel, sink)
                return sink.close()
            except BaseException:
                sink.abort()
                raise
    finally:
        sweep_merge_runs(store, i, shard)


def _merge_join(spec, store, opened, runs, s_rel, sink) -> None:
    """The merge task's body: bounded-fan-in levels, then the final pass.

    Intermediates are opened into ``opened`` (the task's one exit stack)
    and closed and deleted as soon as the next level has merged them.
    """
    i, shard, record_bytes = spec.partition, spec.shard, spec.r_bytes
    batch_records = spec.plan.batch_records
    pmap = spec.pointer_map()
    meter = active_meter()
    klo, khi = (None, None) if shard is None else (shard.lo, shard.hi)
    s_bytes = s_rel.segment.layout.record_bytes
    batch_cost = record_bytes + s_bytes
    fanin = merge_fanin(
        spec.worker_mem_budget, batch_records, record_bytes, s_bytes
    )
    level = 0
    while fanin is not None and len(runs) > fanin:
        merged: List[Run] = []
        for lo in range(0, len(runs), fanin):
            group = runs[lo:lo + fanin]
            if len(group) == 1:
                merged.extend(group)  # the odd run out rides along
                continue
            out = store.path(i, merge_run_name(i, shard, level, len(merged)))
            _merge_group(
                out, group, klo, khi, batch_records, record_bytes, meter
            )
            for run in group:
                if not isinstance(run.rel, SortedRunsFile):
                    run.rel.close()  # an intermediate, now merged
                    run.rel.segment.path.unlink()
            merged.extend(
                _segment_runs(opened.enter_context(RRelationFile.open(out)))
            )
        runs = merged
        level += 1

    def emit(rid, sptr, payload) -> None:
        sid, value = s_rel.dereference_columns(pmap.offset_array(sptr))
        sink.emit_arrays(rid, sid, payload, value)

    if shard is None and len(runs) == 1:
        run = runs[0]
        for rid, sptr, payload in run.rel.iter_column_batches(
            batch_records, run.lo, run.hi
        ):
            meter.charge(len(rid) * batch_cost, "merge batch")
            emit(rid, sptr, payload)
            meter.release(len(rid) * batch_cost)
    elif runs:
        _merge_runs(
            [_RunCursor(run, klo, khi) for run in runs],
            batch_records, record_bytes, s_bytes, meter, emit,
        )


def _merge_group(
    out_path,
    group: List[Run],
    klo: int | None,
    khi: int | None,
    batch_records: int,
    record_bytes: int,
    meter,
) -> None:
    """Merge ``group``'s runs into one published run at ``out_path``."""
    out = RRelationFile.create(
        out_path,
        max(1, sum(run.hi - run.lo for run in group)),
        record_bytes, overwrite=True,
    )
    try:
        _merge_runs(
            [_RunCursor(run, klo, khi) for run in group],
            batch_records, record_bytes, 0, meter, out.append_columns,
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
            # Every buffered key ties the bound.  heapq.merge hands a tie
            # to the earliest run holding it, so that run streams its
            # tied prefix now and the others wait: a hot key's tie group
            # passes through one chunk at a time, never all at once.
            cursor = next(
                c for c in cursors if c.buffered and int(c.sptr[0]) == bound
            )
            tied = int(np.searchsorted(cursor.sptr, bound, side="right"))
            taken.append(cursor.take(tied))
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

class BucketSpills:
    """One partition task's bucketed spill files, one per target.

    A target's file is created at its first flush with its final bucket
    extents and every flush fills each bucket's extent at its cursor
    (:meth:`BucketedRFile.write_buckets`).  Under a spill threshold the
    extents come from a count scan of ``R_i`` (:func:`_spill_extents`),
    run here before the kernel's own scan; without one the single
    end-of-scan flush brings its own counts.  Flushes arrive in scan
    order, so however many there are, each file is byte-identical to the
    one a single flush writes.
    """

    def __init__(
        self,
        spec: TaskSpec,
        store: Store,
        r_rel: RRelationFile,
        resident: int = 0,
    ) -> None:
        self.store = store
        self.contributor = spec.partition
        self.record_layout = RecordLayout(spec.r_bytes)
        self.extents = (
            None if spec.plan.spill_threshold is None
            else _spill_extents(spec, r_rel, resident)
        )
        self.files: Dict[int, BucketedRFile] = {}

    def write(self, target: int, data, counts) -> None:
        """Write one target's flushed records, ``counts[b]`` per bucket."""
        spill = self.files.get(target)
        if spill is None:
            spill = self.files[target] = BucketedRFile.create_laid_out(
                self.store.path(
                    target, bucket_spill_name(target, self.contributor)
                ),
                counts if self.extents is None else self.extents[target],
                self.record_layout.record_bytes, overwrite=True,
            )
        spill.write_buckets(data, counts)

    def close(self) -> None:
        """Publish every file (each refuses unless exactly filled)."""
        for spill in self.files.values():
            spill.close()

    def abort(self) -> None:
        for spill in self.files.values():
            spill.abort()


def _spill_extents(spec: TaskSpec, r_rel: RRelationFile, resident: int):
    """The count scan: records per (target, bucket) this task will spill.

    One arithmetic pass over ``R_i``'s pointer column — locate, bucket,
    ``bincount`` — holding one batch and a ``disks x buckets`` array.
    Buckets below ``resident`` are joined in place, not spilled.
    """
    disks, buckets = spec.disks, spec.plan.buckets
    pmap = spec.pointer_map()
    meter = active_meter()
    part_sizes = np.asarray(
        [pmap.partition_size(j) for j in range(disks)], dtype=np.uint64
    )
    counts = np.zeros(disks * buckets, dtype=np.int64)
    for _rid, sptr, _payload in r_rel.iter_column_batches(
        spec.plan.batch_records
    ):
        meter.charge(len(sptr) * spec.r_bytes, "bucket count batch")
        parts, offs = pmap.locate_array(sptr)
        bucket = _hash_buckets(part_sizes, buckets, parts, offs).astype(
            np.intp
        )
        keys = (parts * buckets + bucket)[bucket >= resident]
        counts += np.bincount(keys, minlength=disks * buckets)
        meter.release(len(sptr) * spec.r_bytes)
    return counts.reshape(disks, buckets)


def _flush_bucket_chunks(
    spills: BucketSpills, grouped: Dict[int, List[tuple]], buckets: int
) -> int:
    """Write accumulated per-target column chunks into their spill files.

    One :func:`_group` by bucket lays each target's records out in bucket
    order (encounter order within a bucket preserved) for one
    :meth:`BucketSpills.write`.
    """
    flushed = 0
    for target, chunks in grouped.items():
        rid = np.concatenate([c[0] for c in chunks])
        sptr = np.concatenate([c[1] for c in chunks])
        payload = np.concatenate([c[2] for c in chunks])
        order, bounds, _ = _group(
            np.concatenate([c[3] for c in chunks]), buckets
        )
        spills.write(
            target,
            spills.record_layout.pack_columns(
                rid[order], sptr[order], payload[order]
            ),
            np.diff(bounds).tolist(),
        )
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


@register_kernel
def grace_partition(spec: TaskSpec) -> int:
    """Passes 0 and 1 for one contributor: hash into the BS_j_from_i files.

    All of one contributor's spill for one target lands in a single
    bucket-grouped :class:`BucketedRFile`.  By default the bucket groups
    are accumulated over the whole scan — the probe side, where grace's
    memory bound lives, stays bucket-at-a-time.  Under a memory budget
    the governor passes a ``spill_threshold``: whenever that many records
    are retained the groups are flushed into their laid-out extents,
    bounding the pass at threshold + one batch.  The files are
    byte-identical either way.
    """
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

    def flush_groups() -> int:
        nonlocal retained
        flushed = _flush_bucket_chunks(spills, grouped, buckets)
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    with store.open_r(i) as r_rel:
        spills = BucketSpills(spec, store, r_rel)
        try:
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
                    moved += flush_groups()
            moved += flush_groups()
            spills.close()
        except BaseException:
            spills.abort()
            raise
    return moved


@register_kernel
def hybrid_hash_partition(spec: TaskSpec) -> StageOutput:
    """Hybrid hash partitioning: join resident buckets on the fly.

    Like :func:`grace_partition`, but references hashing to the plan's
    *resident* buckets (``bucket < resident``) are dereferenced against
    the target S partition and joined during the scan — the paper's
    r0-buckets-stay-home structure.  Non-resident buckets spill with the
    full bucket count, so the probe kernel reads them unchanged.  With
    ``resident == 0`` this is grace partitioning, the partition stage's
    deepest memory rung.
    """
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
    s_rels: Dict[int, object] = {}

    def open_s(target: int):
        if target not in s_rels:
            s_rels[target] = store.open_s(target)
        return s_rels[target]

    def flush_groups() -> int:
        nonlocal retained
        flushed = _flush_bucket_chunks(spills, grouped, buckets)
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    with store.open_r(i) as r_rel:
        spills = BucketSpills(spec, store, r_rel, resident)
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
                    moved += flush_groups()
            moved += flush_groups()
            spills.close()
            result = sink.close()
        except BaseException:
            spills.abort()
            sink.abort()
            raise
        finally:
            for rel in s_rels.values():
                rel.close()
    return StageOutput(moved, result)


@register_kernel
def grace_probe(spec: TaskSpec) -> PairResult:
    """Probe passes for one partition: bucket table, ordered S access.

    The paper's ``TSIZE`` chain table is one :func:`_group` by refining
    chain: chains fill in inbound order and flatten in chain order, which
    is exactly the stably-sorted-by-chain permutation.

    Rebalance axis ``buckets``: ``spec.shard`` restricts the probe to the
    contiguous bucket range ``[lo, hi)``; buckets are independent units
    of work, so the shard union probes exactly the unsharded sequence.
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
