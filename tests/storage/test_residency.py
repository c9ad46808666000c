"""Sequential readers give back the mapped pages they have consumed.

Every reader that streams a segment — the batch iterators, a bucketed
file's bucket reads, sorted-run merge cursors, the pair-block read and the
daemon's pair stream — releases the pages behind records it has copied
out, in 2 MiB steps, so a 32 MiB scan leaves a few MiB mapped, not 32.
The kernels that dereference S in pointer order — the sort-merge
merge-join and the grace/hybrid probe — release S behind their cursor
too; nested loops' random dereferences keep S resident.  Bucket spills
are packed and written one 2 MiB step at a time.  Residency is read from
this process's ``RssFile`` (and, where one page matters, its page-map
``present`` bits): Linux only.
"""

import ctypes
import mmap
import resource
import socket
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.governor import JoinPlan
from repro.parallel import vectorized
from repro.parallel.engine.task import (
    PairResult,
    TaskSpec,
    bucket_spill_name,
    pairs_name,
)
from repro.parallel.vectorized import Run, _RunCursor
from repro.service.protocol import recv_frame
from repro.service.server import JoinService
from repro.storage.layout import RecordLayout
from repro.storage.relation import (
    BucketedRFile,
    PairsFile,
    RRelationFile,
    SortedRunsFile,
    SRelationFile,
    read_pair_block,
    write_columns,
)
from repro.storage.segment import MappedSegment, step_extents
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload

PAGE = mmap.PAGESIZE
MIB = 1 << 20
RECORD_BYTES = 128
RECORDS = (32 * MIB) // RECORD_BYTES
PAIRS = (32 * MIB) // 32
#: Two runs whose boundary falls mid-page, so one page holds both.
IRUN = RECORDS // 2 + 17
BUCKETS = 16
#: A reader may keep this much mapped: its 2 MiB step, a batch, and the
#: kernel's fault-around window, with room to spare.
GROWTH_LIMIT_MIB = 8


def _status_kib(field: str):
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


pytestmark = pytest.mark.skipif(
    _status_kib("RssFile") is None
    or getattr(mmap, "MADV_DONTNEED", None) is None
    or not hasattr(mmap.mmap, "madvise"),
    reason="needs Linux: RssFile in /proc/self/status and madvise",
)


def rss_file_mib() -> float:
    return _status_kib("RssFile") / 1024


def columns(n: int):
    index = np.arange(n, dtype=np.uint64)
    return index, index * np.uint64(3), index * np.uint64(7)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One ≥ 32 MiB segment per reader shape."""
    root = tmp_path_factory.mktemp("residency")
    rid, sptr, payload = columns(RECORDS)
    paths = SimpleNamespace(
        r=root / "R0.seg", run=root / "RUN0.seg", bs=root / "BS0_from0.seg",
        pairs=root / "PAIRS_sm_0.seg",
    )
    write_columns(paths.r, rid, sptr, payload, RECORD_BYTES)
    pack = RecordLayout(RECORD_BYTES).pack_columns
    with SortedRunsFile.create(paths.run, RECORDS, IRUN) as runs:
        for lo in range(0, RECORDS, IRUN):
            hi = lo + IRUN
            runs.append_run(pack(rid[lo:hi], sptr[lo:hi], payload[lo:hi]))
    counts = [RECORDS // BUCKETS] * BUCKETS
    with BucketedRFile.create_laid_out(paths.bs, counts) as buckets:
        buckets.write_buckets(pack(rid, sptr, payload), counts)
    with PairsFile.create(paths.pairs, PAIRS) as pairs:
        pairs.append_packed(np.arange(PAIRS * 4, dtype="<u8"))
    return paths


@pytest.fixture
def samples(monkeypatch):
    """RssFile readings taken after every consumer step of every
    ``iter_batches`` scan — the moment its batch has been copied out."""
    taken = []
    original = MappedSegment.iter_batches

    def iter_batches(self, *args, **kwargs):
        for view in original(self, *args, **kwargs):
            yield view
            taken.append(rss_file_mib())

    monkeypatch.setattr(MappedSegment, "iter_batches", iter_batches)
    return taken


def scan_column_batches(paths, samples):
    with RRelationFile.open(paths.r) as rel:
        samples.append(rss_file_mib())
        batches = list(rel.iter_column_batches())
    return [np.concatenate(column) for column in zip(*batches)]


def scan_record_batches(paths, samples):
    with RRelationFile.open(paths.r) as rel:
        samples.append(rss_file_mib())
        batches = list(rel.iter_record_batches())
    return [np.concatenate(batches).view(np.uint8)]


def scan_buckets(paths, samples):
    with BucketedRFile.open(paths.bs) as rel:
        samples.append(rss_file_mib())
        batches = []
        for bucket in range(rel.buckets):
            batches.append(rel.read_bucket_columns(bucket))
            samples.append(rss_file_mib())
    return [np.concatenate(column) for column in zip(*batches)]


def scan_run_cursors(paths, samples):
    """Two cursors over one run file, one chunk each in turn."""
    with SortedRunsFile.open(paths.run) as rel:
        samples.append(rss_file_mib())
        cursors = [_RunCursor(Run(rel, lo, hi)) for lo, hi in rel.extents()]
        assert len(cursors) == 2
        taken = [[] for _ in cursors]
        while not all(cursor.file_exhausted for cursor in cursors):
            for cursor, out in zip(cursors, taken):
                if not cursor.file_exhausted:
                    cursor.load(4096, _NoMeter, RECORD_BYTES)
                    out.append(cursor.take(cursor.buffered))
                    samples.append(rss_file_mib())
    return [
        np.concatenate([chunk[k] for out in taken for chunk in out])
        for k in range(3)
    ]


def scan_pair_block(paths, samples):
    samples.append(rss_file_mib())
    return [read_pair_block(paths.pairs)]


def scan_send_pairs(paths, samples):
    """The daemon's pair stream into a socket drained by a thread."""
    ours, theirs = socket.socketpair()
    received = []

    def drain():
        attachment = bytearray()
        with theirs:
            while recv_frame(theirs, attachment) is not None:
                received.append(bytes(attachment))

    reader = threading.Thread(target=drain)
    reader.start()
    count = MappedSegment.record_count(paths.pairs)
    service = SimpleNamespace(config=SimpleNamespace(stream_batch=4096))
    result = SimpleNamespace(pair_files=[PairResult(count, 0, str(paths.pairs))])
    samples.append(rss_file_mib())
    with ours:
        streamed = JoinService._send_pairs(service, ours, "r1", result)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert streamed == count
    return [np.frombuffer(b"".join(received), dtype="<u8")]


class _NoMeter:
    @staticmethod
    def charge(*_args) -> None:
        pass


READERS = {
    "iter_column_batches": (scan_column_batches, lambda: list(columns(RECORDS))),
    "iter_record_batches": (
        scan_record_batches,
        lambda: [np.frombuffer(
            RecordLayout(RECORD_BYTES).pack_columns(*columns(RECORDS)),
            dtype=np.uint8,
        )],
    ),
    "read_bucket_columns": (scan_buckets, lambda: list(columns(RECORDS))),
    "run_cursors": (scan_run_cursors, lambda: list(columns(RECORDS))),
    "read_pair_block": (
        scan_pair_block,
        lambda: [np.arange(PAIRS * 4, dtype="<u8").reshape(-1, 4)],
    ),
    "send_pairs": (scan_send_pairs, lambda: [np.arange(PAIRS * 4, dtype="<u8")]),
}


def growth(samples) -> float:
    """Peak RssFile above the first reading, in MiB."""
    return max(samples) - samples[0]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_scan_keeps_a_few_mib_mapped(reader, files, samples):
    """Catches: no release at all, release before the copy (the copy
    refaults the pages behind the watermark), a watermark shared by the
    two run cursors, and a pair-block read that copies the whole file as
    one batch."""
    scan, expected = READERS[reader]
    output = scan(files, samples)
    assert growth(samples) <= GROWTH_LIMIT_MIB, (reader, growth(samples))
    for got, want in zip(output, expected(), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_output_is_the_unreleased_reads(reader, files, samples, monkeypatch):
    """With the release monkeypatched away the same scan returns the same
    bytes — and keeps the whole file mapped, which is what the sampling
    above would see if a reader stopped releasing."""
    scan = READERS[reader][0]
    released = scan(files, samples)
    samples.clear()
    monkeypatch.setattr(MappedSegment, "_release", lambda self, lo, hi: None)
    kept = scan(files, samples)
    assert growth(samples) >= 24, (reader, growth(samples))
    assert len(released) == len(kept)
    for a, b in zip(released, kept):
        np.testing.assert_array_equal(a, b)


def _present(address: int, lo: int, hi: int) -> np.ndarray:
    """The page-map ``present`` bit of each page of ``[lo, hi)``."""
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek((address + lo) // PAGE * 8)
        entries = pagemap.read((hi - lo) // PAGE * 8)
    return (np.frombuffer(entries, dtype="<u8") >> np.uint64(63)).astype(bool)


def test_a_cursor_never_releases_its_neighbours_pages(files):
    """Runs 0 and 1 share the page their boundary falls in.  Draining
    run 1's cursor releases run 1's own pages only; draining run 0's
    after it leaves the shared page mapped.  Catches: a watermark that
    starts at the page *below* a run's first record, and a watermark
    shared by the cursors of one file."""
    with SortedRunsFile.open(files.run) as rel:
        segment = rel.segment
        rel.read_columns(0, len(rel))  # every page mapped
        cell = ctypes.c_char.from_buffer(segment._map)
        address = ctypes.addressof(cell)
        del cell
        end = PAGE + len(rel) * RECORD_BYTES
        boundary = PAGE + IRUN * RECORD_BYTES
        shared = boundary - boundary % PAGE
        assert boundary % PAGE and end % PAGE == 0
        first, second = (_RunCursor(Run(rel, lo, hi)) for lo, hi in rel.extents())
        while not second.file_exhausted:
            second.load(4096, _NoMeter, RECORD_BYTES)
        assert _present(address, PAGE, shared + PAGE).all()
        assert not _present(address, shared + PAGE, end).any()
        while not first.file_exhausted:
            first.load(4096, _NoMeter, RECORD_BYTES)
        assert not _present(address, PAGE, shared).any()
        assert _present(address, shared, shared + PAGE).all()


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


@pytest.mark.parametrize("batch", [4096, 1024])
def test_release_is_coarse_and_takes_no_extra_faults(batch, files, monkeypatch):
    """One ``madvise`` per 2 MiB crossed, each over pages the scan is
    done with, so the scan faults no more than one that keeps every
    page.  Catches a release per batch at page granularity: one call per
    batch, and on a kernel that maps large folios at once, refaults."""
    release = MappedSegment._release
    calls = []

    def counted(self, lo, hi):
        calls.append(hi - lo)
        release(self, lo, hi)

    def faults() -> int:
        with RRelationFile.open(files.r) as rel:
            before = _minor_faults()
            for _batch in rel.iter_column_batches(batch):
                pass
            return _minor_faults() - before

    monkeypatch.setattr(MappedSegment, "_release", counted)
    released = faults()
    assert len(calls) <= RECORDS * RECORD_BYTES // (2 * MIB) + 1, len(calls)
    monkeypatch.setattr(MappedSegment, "_release", lambda self, lo, hi: None)
    kept = faults()
    assert released <= kept + 2, (batch, released, kept)


def test_release_is_a_no_op_without_madvise(files, monkeypatch):
    """Where Python lacks ``MADV_DONTNEED`` a scan keeps its pages and
    reads the same records."""
    import repro.storage.segment as segment_module

    monkeypatch.setattr(segment_module, "_DONTNEED", None)
    with RRelationFile.open(files.r) as rel:
        base = rss_file_mib()
        batches = list(rel.iter_column_batches())
        assert rss_file_mib() - base >= 24
    for got, want in zip(zip(*batches), columns(RECORDS)):
        np.testing.assert_array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("record_bytes", [128, 100])
def test_materialize_cuts_its_writes_at_2_mib_offsets(record_bytes):
    """``write_columns`` appends one 2 MiB step at a time, each ending at
    the last whole record before a 2 MiB file offset, so the page cache
    holds the folios one whole write would."""
    count = 3 * (2 * MIB) // record_bytes + 5
    extents = list(step_extents(count, record_bytes))
    assert extents[0][0] == 0 and extents[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(extents, extents[1:]))
    for k, (_lo, hi) in enumerate(extents[:-1], start=1):
        end = PAGE + hi * record_bytes
        assert k * 2 * MIB - record_bytes < end <= k * 2 * MIB


def test_materialized_partition_reads_back_in_few_faults(tmp_path):
    """A partition appended in steps faults no more on a mapped read than
    one written whole.  Catches appends of one 512 KiB batch each, which
    leave small folios: 100 faults against 12 for 12.5 MiB on a kernel
    whose page cache maps large folios."""
    rid, sptr, payload = columns(RECORDS)

    def read_faults(path) -> int:
        with RRelationFile.open(path) as rel:
            before = _minor_faults()
            for _batch in rel.iter_column_batches():
                pass
            return _minor_faults() - before

    stepped, whole = tmp_path / "R0.seg", tmp_path / "R1.seg"
    write_columns(stepped, rid, sptr, payload, RECORD_BYTES)
    with MappedSegment.create(whole, RECORDS, RECORD_BYTES) as segment:
        segment.append_batch(segment.layout.pack_columns(rid, sptr, payload))
    assert read_faults(stepped) <= read_faults(whole) + 2


# ------------------------------------------------------------------ kernels

#: One disk, so the one S partition is 266,240 × 128 B = 32.5 MiB, and so
#: is the one R partition.
KERNEL_SCALE = 2.6


@pytest.fixture(scope="module")
def one_disk(tmp_path_factory):
    """A one-disk store with the sort-merge runs and grace spills of its
    one partition already written."""
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=KERNEL_SCALE, seed=3), disks=1
    )
    store = Store(str(tmp_path_factory.mktemp("kernels")), 1)
    store.materialize(workload)
    with store.open_s(0) as s_rel:
        assert len(s_rel) * RECORD_BYTES >= 32 * MIB
    for kernel in ("sort_merge_partition", "sort_merge_runs", "grace_partition"):
        getattr(vectorized, kernel)(kernel_spec(workload, store, kernel))
    return SimpleNamespace(workload=workload, store=store)


def kernel_spec(workload, store, kernel, plan=JoinPlan()) -> TaskSpec:
    return TaskSpec(
        str(store.root), 1, 0, workload.s_objects_total,
        workload.spec.r_bytes, kernel=kernel, plan=plan,
    )


@pytest.fixture
def deref_samples(monkeypatch):
    """RssFile readings taken after every S dereference batch."""
    taken = []
    original = SRelationFile.dereference_columns

    def dereference_columns(self, offsets):
        columns = original(self, offsets)
        taken.append(rss_file_mib())
        return columns

    monkeypatch.setattr(SRelationFile, "dereference_columns", dereference_columns)
    return taken


#: Kernel, the label of the PAIRS segment it writes.
S_READERS = {
    "sort_merge_merge_join": "sm",
    "grace_probe": "probe",
    "nested_loops_pass0": "p0",
}


def run_kernel(one_disk, kernel, samples) -> bytes:
    """Run one task on the one-disk store; return its PAIRS bytes."""
    store = one_disk.store
    samples.append(rss_file_mib())
    getattr(vectorized, kernel)(kernel_spec(one_disk.workload, store, kernel))
    return store.path(0, pairs_name(S_READERS[kernel], 0)).read_bytes()


@pytest.mark.parametrize("kernel", ["sort_merge_merge_join", "grace_probe"])
def test_ordered_s_reads_release_behind_their_cursor(
    kernel, one_disk, deref_samples
):
    """The merge-join and the probe dereference S in ascending offset
    order, so the pages behind their cursor go as they pass: S's growth
    stays a few MiB where the 32.5 MiB partition was kept resident.
    Catches: no S release (the whole partition stays mapped), and a
    probe that releases only after its last bucket."""
    run_kernel(one_disk, kernel, deref_samples)
    assert len(deref_samples) > 8
    assert growth(deref_samples) <= GROWTH_LIMIT_MIB, (kernel, growth(deref_samples))


def test_random_dereferences_keep_s_resident(one_disk, deref_samples):
    """Nested loops dereferences S at random: nothing behind a cursor is
    done with, so S stays mapped — the paper's ``Ylru`` term assumes it.
    Catches a release added to ``dereference_columns`` itself."""
    run_kernel(one_disk, "nested_loops_pass0", deref_samples)
    assert growth(deref_samples) >= 24, growth(deref_samples)


@pytest.mark.parametrize("kernel", sorted(S_READERS))
def test_kernel_output_is_the_unreleased_output(
    kernel, one_disk, deref_samples, monkeypatch
):
    """With the release monkeypatched away each kernel writes the same
    pairs, and S stays mapped (the growth the bound above is about).
    Catches a release that drops file contents rather than this
    process's mapping (``MADV_REMOVE`` for ``MADV_DONTNEED``)."""
    released = run_kernel(one_disk, kernel, deref_samples)
    deref_samples.clear()
    monkeypatch.setattr(MappedSegment, "_release", lambda self, lo, hi: None)
    kept = run_kernel(one_disk, kernel, deref_samples)
    assert growth(deref_samples) >= 24, (kernel, growth(deref_samples))
    assert released == kept


def one_shot_bucket_file(one_disk, path) -> bytes:
    """The one-disk grace spill packed whole and written in one call."""
    plan = JoinPlan()
    with one_disk.store.open_r(0) as r_rel:
        rid, sptr, payload = r_rel.read_columns(0, len(r_rel))
    part_size = np.asarray([one_disk.workload.s_objects_total], np.uint64)
    bucket = vectorized._hash_buckets(
        part_size, plan.buckets, np.zeros(len(sptr), np.intp), sptr
    )
    order = np.argsort(bucket, kind="stable")
    counts = np.bincount(bucket.astype(np.intp), minlength=plan.buckets)
    with BucketedRFile.create_laid_out(path, counts.tolist()) as out:
        out.write_buckets(
            out.segment.layout.pack_columns(
                rid[order], sptr[order], payload[order]
            ),
            counts.tolist(),
        )
    return path.read_bytes()


@pytest.mark.parametrize("threshold", [None, 50_000], ids=["one-flush", "threshold"])
def test_stepwise_flush_writes_the_one_shot_file(
    threshold, one_disk, tmp_path
):
    """Packing 2 MiB at a time writes the bytes one whole pack writes,
    in one flush and in several.  Catches a step's bucket counts taken
    from the whole flush (a bucket overfills) or from the wrong rows."""
    store = one_disk.store
    spill = store.path(0, bucket_spill_name(0, 0))
    reference = one_shot_bucket_file(one_disk, tmp_path / "BS0_from0.seg")
    vectorized.grace_partition(kernel_spec(
        one_disk.workload, store, "grace_partition",
        JoinPlan(spill_threshold=threshold),
    ))
    assert spill.read_bytes() == reference


def test_unbudgeted_flush_cuts_its_writes_at_2_mib_offsets(
    one_disk, monkeypatch
):
    """The single end-of-scan flush writes one 2 MiB step at a time, each
    ending at the last whole record before a 2 MiB file offset, as
    materialize does.  Catches one write of the whole 32.5 MiB spill."""
    writes = []
    original = MappedSegment._write_at

    def spy(self, index, data, limit):
        count = original(self, index, data, limit)
        if self.path.name.startswith("BS"):
            writes.append((index, count))
        return count

    monkeypatch.setattr(MappedSegment, "_write_at", spy)
    vectorized.grace_partition(
        kernel_spec(one_disk.workload, one_disk.store, "grace_partition")
    )
    total = one_disk.workload.r_objects_total
    assert [lo for lo, _n in writes] == [0] + [
        lo + n for lo, n in writes[:-1]
    ]
    assert writes[-1][0] + writes[-1][1] == total
    assert writes == [(lo, hi - lo) for lo, hi in step_extents(total, RECORD_BYTES)]
    for k, (lo, n) in enumerate(writes[:-1], start=1):
        end = PAGE + (lo + n) * RECORD_BYTES
        assert k * 2 * MIB - RECORD_BYTES < end <= k * 2 * MIB
