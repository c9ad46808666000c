"""Per-record stage kernels: the test oracle for the vector kernels.

One plain-Python implementation of each of the eight stage kernels in
:mod:`repro.parallel.vectorized`, written record by record — decoded
``RObject`` batches, ``dict.setdefault`` grouping, ``list.sort``,
``heapq.merge`` — so the vector kernels' record order, meter charges and
artifact bytes can be checked against an independent transcription.
The kernels read and write storage through the per-object readers and the
reference packer below: ``struct`` over the segment's block reads and
appends, never the numpy gathers they check.  Storage tests use them too.

Nothing here is registered.  :func:`scalar_kernels` swaps these
functions into the engine's kernel registry for the duration of a
``with`` block, so an inline run (``use_processes=False``) executes them
through the same executor, governor and checkpoint paths as production.
"""

from __future__ import annotations

import heapq
import struct
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.governor.watchdog import active_meter

from repro.core.records import JoinedPair, RObject, SObject
from repro.joins.grace import order_preserving_bucket, refining_chain
from repro.obs.registry import active
from repro.parallel import vectorized
from repro.parallel.engine import task as engine_task
from repro.parallel.engine.task import (
    BATCH_RECORDS,
    CHECKSUM_MOD,
    PairResult,
    PairSink,
    StageOutput,
    TaskSpec,
    bucket_spill_paths,
    nl_spill_name,
    pairs_name,
    rs_name,
    run_name,
    sort_run_spans,
)
from repro.storage.relation import (
    BucketedRFile,
    PairsFile,
    RRelationFile,
    SortedRunsFile,
)
from repro.storage.segment import MappedSegment, StorageError


@contextmanager
def scalar_kernels():
    """Run every stage kernel from this module inside the block.

    Only inline runs see the swap: pool workers resolve kernels in their
    own registry.
    """
    registry = engine_task._KERNELS
    saved = {name: engine_task.resolve_kernel(name) for name in KERNELS}
    registry.update(KERNELS)
    try:
        yield
    finally:
        registry.update(saved)


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


# -------------------------------------------------------- per-object storage

_FIELDS = struct.Struct("<QQQ")
_PAIR = struct.Struct("<QQQQ")


def pack_records(objects: Iterable[tuple], record_bytes: int = 128) -> bytes:
    """The reference packer: three u64 fields, then zero padding."""
    pad = bytes(record_bytes - _FIELDS.size)
    return b"".join(_FIELDS.pack(*obj) + pad for obj in objects)


def append_objects(rel, objects: List[tuple]) -> int:
    """Append decoded records to a relation in one block write."""
    segment = rel.segment
    return segment.append_batch(
        pack_records(objects, segment.layout.record_bytes)
    )


def iter_object_batches(
    rel, batch_records: int = BATCH_RECORDS, start: int = 0, stop=None,
    make=RObject._make,
) -> Iterator[List]:
    """Records ``[start, stop)`` decoded ``batch_records`` at a time."""
    segment = rel.segment
    record = struct.Struct(
        f"<QQQ{segment.layout.record_bytes - _FIELDS.size}x"
    )
    for view in segment.iter_batches(batch_records, start, stop):
        with view:
            yield list(map(make, record.iter_unpack(view)))


def read_objects(rel, make=RObject._make) -> List:
    """Every record of a relation, decoded."""
    return [obj for batch in iter_object_batches(rel, make=make)
            for obj in batch]


def iter_bucket_batches(rel: BucketedRFile, bucket: int, batch_records: int):
    """One bucket's extent of a bucketed spill file, decoded in batches."""
    start, count = rel._directory[bucket]
    return iter_object_batches(rel, batch_records, start, start + count)


def dereference_many(s_rel, offsets: List[int]) -> List[SObject]:
    """Follow local pointer offsets: one ``unpack_from`` each."""
    segment = s_rel.segment
    count = len(segment)
    if offsets and (min(offsets) < 0 or max(offsets) >= count):
        raise StorageError(
            f"pointer offset outside [0, {count}) in {segment.path.name}"
        )
    stride = segment.layout.record_bytes
    with segment.read_batch(0, count) as view:
        return [SObject._make(_FIELDS.unpack_from(view, off * stride))
                for off in offsets]


def pack_pairs(pairs: Iterable[tuple]) -> bytes:
    """The reference pair packer: (rid, sid, r_payload, s_value) u64s."""
    return b"".join(_PAIR.pack(*pair) for pair in pairs)


def read_pairs(path) -> List[JoinedPair]:
    """One PAIRS segment's pairs, decoded in file order."""
    out: List[JoinedPair] = []
    with PairsFile.open(path) as pairs:
        for view in pairs.segment.iter_batches():
            with view:
                out.extend(map(JoinedPair._make, _PAIR.iter_unpack(view)))
    return out


class ScalarPairSink(PairSink):
    """A :class:`PairSink` fed decoded R/S batches, packed by ``struct``."""

    def emit_joined(self, r_objects: List, s_objects: List) -> None:
        """Join matched R/S batches positionally and stream the pairs."""
        pairs = [(r[0], s[0], r[2], s[1])
                 for r, s in zip(r_objects, s_objects)]
        if not pairs:
            return
        self._file.append_packed(pack_pairs(pairs))
        active().count("worker.pairs", len(pairs))
        self.count += len(pairs)
        self.checksum = (
            self.checksum
            + sum(p[0] * 1_000_003 + p[1] * 7919 + p[3] for p in pairs)
        ) % CHECKSUM_MOD


def _phase_partner(i: int, t: int, disks: int) -> int:
    return (i + t) % disks


# ------------------------------------------------------------ nested loops

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
        s_bytes = s_rel.segment.layout.record_bytes
        sink = ScalarPairSink(store.path(i, pairs_name("p0", i)), len(r_rel))
        spill = {
            j: RRelationFile.create(
                store.path(i, nl_spill_name(i, j)), max(1, len(r_rel)),
                record_bytes, overwrite=True,
            )
            for j in range(disks)
            if j != i
        }
        try:
            for batch in iter_object_batches(r_rel, batch_records):
                charged = len(batch) * record_bytes
                meter.charge(charged, "nested-loops R batch")
                located = [pmap.locate(obj[1]) for obj in batch]
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
                sink.emit_joined(
                    local_r, dereference_many(s_rel, local_offsets)
                )
                for target, objects in remote.items():
                    append_objects(spill[target], objects)
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
    disks, i = spec.disks, spec.partition
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    partners = [_phase_partner(i, t, disks) for t in range(1, disks)]
    spill_paths = [store.path(i, nl_spill_name(i, j)) for j in partners]
    sink = ScalarPairSink(
        store.path(i, pairs_name("p1", i)),
        sum(MappedSegment.record_count(path) for path in spill_paths),
    )
    try:
        for j, path in zip(partners, spill_paths):
            with RRelationFile.open(path) as spill, store.open_s(j) as s_rel:
                r_bytes = spill.segment.layout.record_bytes
                s_bytes = s_rel.segment.layout.record_bytes
                for batch in iter_object_batches(spill, batch_records):
                    charged = len(batch) * (r_bytes + s_bytes)
                    meter.charge(charged, "nested-loops spill batch")
                    offsets = [pmap.offset_of(obj[1]) for obj in batch]
                    sink.emit_joined(batch, dereference_many(s_rel, offsets))
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
            for batch in iter_object_batches(r_rel, batch_records):
                meter.charge(
                    len(batch) * record_bytes, "sort-merge partition batch"
                )
                located = [pmap.locate(obj[1]) for obj in batch]
                buckets: Dict[int, List[RObject]] = {}
                for obj, (target, _offset) in zip(batch, located):
                    buckets.setdefault(target, []).append(obj)
                for target, objects in buckets.items():
                    append_objects(outputs[target], objects)
                    moved += len(objects)
                meter.release(len(batch) * record_bytes)
            for rel in outputs.values():
                rel.close()
        except BaseException:
            for rel in outputs.values():
                rel.abort()
            raise
    return moved


def sort_merge_runs(spec: TaskSpec) -> int:
    """Cut one partition's inbound RS files into sorted runs on disk.

    The runs are consecutive ``irun``-record extents of the task's one
    RUN segment (only the last is short).  The meter's charge
    always equals len(buffer) * record_bytes: extends charge, flushes
    release exactly what they wrote — so a shrunken ``irun`` directly
    lowers this stage's high-water mark at the cost of more runs (and,
    under a budget, more passes) for the merge stage.
    """
    i, record_bytes = spec.partition, spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    meter = active_meter()
    irun = max(1, spec.plan.irun)
    spans = sort_run_spans(store, spec)
    out = SortedRunsFile.create(
        store.path(i, run_name(i)),
        max(1, sum(count for _path, count in spans)),
        irun, record_bytes, overwrite=True,
    )
    buffer: List[RObject] = []
    inbound = 0

    def flush_run() -> None:
        if not buffer:
            return
        buffer.sort(key=lambda obj: obj.sptr)
        out.append_run(pack_records(buffer, record_bytes))
        meter.release(len(buffer) * record_bytes)
        buffer.clear()

    try:
        for path, _count in spans:
            with RRelationFile.open(path) as rel:
                for batch in iter_object_batches(rel, batch_records):
                    inbound += len(batch)
                    meter.charge(len(batch) * record_bytes, "sort-run buffer")
                    buffer.extend(batch)
                    while len(buffer) >= irun:
                        tail = buffer[irun:]
                        del buffer[irun:]
                        flush_run()
                        buffer.extend(tail)
        flush_run()
    except BaseException:
        out.abort()
        raise
    out.close()
    return inbound


def _run_stream(run, batch_records: int):
    """Stream one run extent's objects."""
    rel, lo, hi = run
    for batch in iter_object_batches(rel, batch_records, lo, hi):
        yield from batch


def sort_merge_merge_join(spec: TaskSpec) -> PairResult:
    """Merge one partition's sorted runs and join against sequential S_i.

    Each RUN segment is opened once and each of its extents is one
    stream.  A single run needs no heap: its records are already in sptr
    order — the common case whenever a partition's inbound fits one
    initial run.
    """
    i, record_bytes = spec.partition, spec.r_bytes
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    with ExitStack() as opened:
        runs = vectorized.open_runs(store, i, opened)
        sink = ScalarPairSink(
            store.path(i, pairs_name("sm", i)),
            sum(run.hi - run.lo for run in runs),
        )
        try:
            with store.open_s(i) as s_rel:
                batch_cost = record_bytes + s_rel.segment.layout.record_bytes
                streams = [_run_stream(run, batch_records) for run in runs]
                merged = (
                    streams[0]
                    if len(streams) == 1
                    else heapq.merge(*streams, key=lambda o: o.sptr)
                )
                for batch in rebatch(merged, batch_records):
                    meter.charge(len(batch) * batch_cost, "merge batch")
                    offsets = [pmap.offset_of(obj[1]) for obj in batch]
                    sink.emit_joined(batch, dereference_many(s_rel, offsets))
                    meter.release(len(batch) * batch_cost)
            return sink.close()
        except BaseException:
            sink.abort()
            raise


# ------------------------------------------------------- grace / hybrid hash

def _spill_bucket_groups(
    spills: vectorized.BucketSpills,
    grouped: Dict[int, Dict[int, List[RObject]]],
    buckets: int,
) -> int:
    """Write accumulated bucket groups into their targets' spill files.

    Shared by the grace and hybrid-hash partition kernels; the files are
    named by :func:`~repro.parallel.engine.task.bucket_spill_name`, which
    is also how the probe kernel finds them — producers and consumers
    agree on artifact names through that one scheme.
    """
    flushed = 0
    for target, bucket_groups in grouped.items():
        objects = [
            obj for bucket in sorted(bucket_groups)
            for obj in bucket_groups[bucket]
        ]
        spills.write(
            target,
            pack_records(objects, spills.record_layout.record_bytes),
            [len(bucket_groups.get(bucket, ())) for bucket in range(buckets)],
        )
        flushed += len(objects)
    grouped.clear()
    return flushed


def grace_partition(spec: TaskSpec) -> int:
    """Passes 0 and 1 for one contributor: hash into the BS_j_from_i files.

    All of one contributor's spill for one target lands in a single
    bucket-grouped :class:`BucketedRFile` (file creation dominates this
    pass when every (target, bucket) pair gets its own file).  By default
    the bucket groups are accumulated in memory over the whole scan — the
    probe side, where grace's memory bound actually lives, stays
    bucket-at-a-time.  Under a memory budget the governor passes a
    ``spill_threshold``: a count scan of ``R_i`` first lays every file out
    at its final size, and whenever that many objects are retained the
    groups are flushed into place, bounding the partition pass at
    threshold + one batch.  The files are byte-identical either way.
    """
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

    def flush_groups() -> int:
        nonlocal retained
        flushed = _spill_bucket_groups(spills, grouped, buckets)
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    with store.open_r(i) as r_rel:
        spills = vectorized.BucketSpills(spec, store, r_rel)
        try:
            for batch in iter_object_batches(r_rel, batch_records):
                meter.charge(len(batch) * record_bytes, "grace bucket groups")
                retained += len(batch)
                located = [pmap.locate(obj[1]) for obj in batch]
                for obj, (target, offset) in zip(batch, located):
                    bucket = order_preserving_bucket(
                        offset, part_sizes[target], buckets
                    )
                    grouped.setdefault(target, {}).setdefault(
                        bucket, []
                    ).append(obj)
                if spill_threshold is not None and retained >= spill_threshold:
                    moved += flush_groups()
            moved += flush_groups()
            spills.close()
        except BaseException:
            spills.abort()
            raise
    return moved


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
    s_rels: Dict[int, object] = {}

    def open_s(target: int):
        if target not in s_rels:
            s_rels[target] = store.open_s(target)
        return s_rels[target]

    def flush_groups() -> int:
        nonlocal retained
        flushed = _spill_bucket_groups(spills, grouped, buckets)
        meter.release(retained * record_bytes)
        retained = 0
        return flushed

    with store.open_r(i) as r_rel:
        spills = vectorized.BucketSpills(spec, store, r_rel, resident)
        sink = ScalarPairSink(store.path(i, pairs_name("hh", i)), len(r_rel))
        try:
            for batch in iter_object_batches(r_rel, batch_records):
                meter.charge(len(batch) * record_bytes, "hybrid bucket groups")
                located = [pmap.locate(obj[1]) for obj in batch]
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
                    sink.emit_joined(objs, dereference_many(s_rel, offsets))
                    meter.release(charged)
                meter.release(resident_count * record_bytes)
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


def grace_probe(spec: TaskSpec) -> PairResult:
    """Probe passes for one partition: bucket table, ordered S access."""
    disks, i = spec.disks, spec.partition
    buckets, tsize = spec.plan.buckets, spec.plan.tsize
    batch_records = spec.plan.batch_records
    store = spec.open_store()
    pmap = spec.pointer_map()
    meter = active_meter()
    part_size = pmap.partition_size(i)
    inbound: List[BucketedRFile] = []
    for contributor in range(disks):
        for path in bucket_spill_paths(store, i, contributor):
            inbound.append(BucketedRFile.open(path))
    capacity = sum(len(rel) for rel in inbound)
    sink = None
    try:
        sink = ScalarPairSink(store.path(i, pairs_name("probe", i)), capacity)
        with store.open_s(i) as s_rel:
            s_bytes = s_rel.segment.layout.record_bytes
            for bucket in range(buckets):
                table: List[List[RObject]] = [[] for _ in range(tsize)]
                bucket_charged = 0
                for rel in inbound:
                    r_bytes = rel.segment.layout.record_bytes
                    for batch in iter_bucket_batches(
                        rel, bucket, batch_records
                    ):
                        meter.charge(
                            len(batch) * r_bytes, "grace probe bucket"
                        )
                        bucket_charged += len(batch) * r_bytes
                        offsets = [pmap.offset_of(obj[1]) for obj in batch]
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
                    offsets = [pmap.offset_of(obj[1]) for obj in chunk]
                    sink.emit_joined(chunk, dereference_many(s_rel, offsets))
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


KERNELS = {
    func.__name__: func
    for func in (
        nested_loops_pass0,
        nested_loops_pass1,
        sort_merge_partition,
        sort_merge_runs,
        sort_merge_merge_join,
        grace_partition,
        hybrid_hash_partition,
        grace_probe,
    )
}
