"""Sequential readers give back the mapped pages they have consumed.

Every reader that streams a segment — the batch iterators, a bucketed
file's bucket reads, sorted-run merge cursors, the pair-block read and the
daemon's pair stream — releases the pages behind records it has copied
out, in 2 MiB steps, so a 32 MiB scan leaves a few MiB mapped, not 32.
Residency is read from this process's ``RssFile`` (and, where one page
matters, its page-map ``present`` bits): Linux only.
"""

import ctypes
import mmap
import resource
import socket
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.parallel.engine.task import PairResult
from repro.parallel.vectorized import Run, _RunCursor
from repro.service.protocol import recv_frame
from repro.service.server import JoinService
from repro.storage.layout import RecordLayout
from repro.storage.relation import (
    BucketedRFile,
    PairsFile,
    RRelationFile,
    SortedRunsFile,
    read_pair_block,
    write_columns,
)
from repro.storage.segment import MappedSegment, step_extents

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
