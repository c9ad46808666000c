"""File-backed memory-mapped segments (the real-``mmap`` single-level store).

This is the µDatabase idea on Python's :mod:`mmap`: a segment is one file,
mapped into the address space, holding a header page plus a fixed-size
record area.  Reads are plain slices of the mapping — no explicit ``read``
calls — so the OS pager performs all read I/O, exactly the environment the
paper studies.  Writes move whole blocks of records with ``pwrite``, which
skips the first-write fault a store through a fresh mapping would take.

The three mapping operations mirror the paper's cost model:

* :meth:`MappedSegment.create` — ``newMap``: acquire disk space (ftruncate)
  and build the mapping;
* :meth:`MappedSegment.open`   — ``openMap``: map existing data;
* :meth:`MappedSegment.delete` — ``deleteMap``: unmap and destroy the data.

All three are also exposed as timed helpers so the real backend can measure
its own Figure 1(b).

Every mapping operation additionally records into the active
:mod:`repro.obs` registry (labelled by segment *kind* — the leading
alphabetic run of the file name, so ``RP0_1.seg`` counts under ``RP``).
Block traffic — reads, writes and pointer dereferences — is tallied per
batch on the segment itself (:meth:`MappedSegment.tally`) and reported
once, when the segment is closed or discarded, as the
``storage.{read,write,deref}.{batches,records,bytes}`` counters: a
segment costs the registry a handful of calls however many batches it
moved.  When no registry is active the calls hit the shared no-op
``NullRegistry``.

Reads through the mapping fault pages in; nothing would give them back
before the segment closed, so every sequential reader does it itself:
:meth:`MappedSegment.iter_batches` and the :class:`ReadStream` a reader
of extents keeps release the pages whose records have been copied out,
in 2 MiB steps.  A task's resident mapped bytes are then its open streams
× 2 MiB plus the S partition it dereferences, which stays mapped
resident as the paper's cost model has it.  Payload verification and
scrub never map: they ``pread``.

Segment creation is *atomic with respect to process crashes*: ``create``
writes to a ``<name>.seg.tmp`` sibling and ``close`` renames it into
place, so a reader can only ever open a fully written segment — a writer
that dies mid-pass leaves an orphan ``.tmp`` file that
:meth:`~repro.storage.store.Store.cleanup_orphans` sweeps, never a
half-written ``.seg``.  ``discard`` closes *without* publishing (the
failure path), and every reader rejects torn files outright (bad magic,
a header count beyond capacity, or a file shorter than its header
claims) through one header-page check, :func:`_check_header_page`.
The rename protocol alone covers process-crash recovery, which is the
real backend's fault model; pass ``durable=True`` to additionally
fsync before the rename when power-failure durability is needed —
it is off by default because closing hundreds of temporary spill files
per join must not pay a synchronous writeback each.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Tuple

try:  # pragma: no cover - POSIX-only; the flock guard degrades gracefully
    import fcntl as _fcntl
except ImportError:  # pragma: no cover
    _fcntl = None

from repro.governor.budget import disk_preflight
from repro.governor.errors import classify_os_error
from repro.governor.watchdog import active_meter as _meter
from repro.obs.registry import active as _metrics
from repro.storage.layout import HEADER_BYTES, RecordLayout

MAGIC = b"UDBSEG1\x00"
HEADER = struct.Struct("<8sQQQ")  # magic, record_bytes, capacity, count
PAGE_SIZE = mmap.PAGESIZE
_META_LEN = struct.Struct("<Q")

# Integrity footer: a per-payload CRC-32 (IEEE polynomial, zlib's value;
# the tag records which algorithm produced it so a future build with
# another checksum stays self-describing) written into the *end* of the
# header page at close() and verified on open().  The torn-
# header rejection of `_check_header_page` catches writers that died mid-
# publish; the footer extends that to silent payload corruption — a
# flipped bit in a cold segment, a partial page lost by a dying disk.
INTEGRITY_MAGIC = b"UDBCRC1\x00"
_FOOTER = struct.Struct("<8s4sQQ")  # magic, algo tag, crc, count at crc
FOOTER_OFFSET = PAGE_SIZE - _FOOTER.size
_CRC_ALGO = b"crc2"  # zlib.crc32 (IEEE polynomial)
_CRC_CHUNK = 1 << 20
# A sequential reader gives its consumed pages back in steps of this many
# bytes (:class:`ReadStream`): one ``madvise`` per 2 MiB crossed, not one
# per batch, so a scan takes no more faults than one that keeps its pages.
# Batched writers cut at the same file offsets (:func:`step_extents`).
_RELEASE_STEP = 2 << 20
# ``MADV_DONTNEED`` on a clean shared file mapping drops only this
# process's page-table entries: the bytes stay in the page cache and a
# later read refaults them unchanged.  ``None`` where Python lacks it.
_DONTNEED = (
    getattr(mmap, "MADV_DONTNEED", None)
    if hasattr(mmap.mmap, "madvise") else None
)


def _load_crc32():
    """The CRC-32 engine: libdeflate's kernel where the system library
    loads, zlib's otherwise.

    Both compute the IEEE CRC-32 with zlib's seed convention, so either
    engine reads and writes the same footers.  ctypes can take the
    address only of a writable, non-empty buffer: read-only and empty
    buffers stay on zlib.
    """
    try:
        kernel = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return "zlib", zlib.crc32
    kernel.restype = ctypes.c_uint32
    kernel.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    address, cell = ctypes.addressof, ctypes.c_char.from_buffer

    def libdeflate_crc32(data, crc: int = 0) -> int:
        view = memoryview(data)
        if view.readonly or not view.nbytes:
            return zlib.crc32(view, crc)
        start = cell(view)  # holds the buffer export across the call
        return kernel(crc, address(start), view.nbytes)

    return "libdeflate", libdeflate_crc32


#: Which engine ``crc32`` resolved to: ``"libdeflate"`` or ``"zlib"``.
CRC_ENGINE, crc32 = _load_crc32()

META_CAPACITY = PAGE_SIZE - HEADER.size - _META_LEN.size - _FOOTER.size

#: Payload-verification memo: :func:`_memo_key` -> verified crc.  A pool
#: worker re-opens the same R/S/spill segments task after task; re-hashing
#: an unchanged file every time would turn the <5%% verify overhead into a
#: full extra read per task.
_VERIFIED_CACHE: dict = {}
_VERIFIED_CACHE_MAX = 8192


def _memo_key(fd: int) -> tuple:
    """The verified-file memo's key for the file behind ``fd``.

    Any write bumps mtime and ctime.  mtime alone can be set back
    (``os.utime``) over rotted bytes; ctime cannot be set from user
    space, so a stale entry never satisfies a changed file.
    """
    st = os.fstat(fd)
    return (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_ctime_ns, st.st_size)


def _remember_verified(fd: int, crc: int) -> None:
    if len(_VERIFIED_CACHE) >= _VERIFIED_CACHE_MAX:
        _VERIFIED_CACHE.clear()
    _VERIFIED_CACHE[_memo_key(fd)] = crc


def _payload_crc(fd: int, count: int, record_bytes: int) -> int:
    """CRC over the written payload bytes, chunked pread (no mapping)
    into one buffer reused for every chunk."""
    crc = 0
    offset = PAGE_SIZE
    remaining = count * record_bytes
    buffer = memoryview(bytearray(min(_CRC_CHUNK, remaining)))
    while remaining:
        got = os.preadv(fd, [buffer[:remaining]], offset)
        if not got:  # short file — the count check reports it precisely
            break
        crc = crc32(buffer[:got], crc)
        offset += got
        remaining -= got
    return crc


def _check_payload(
    path: Path, fd: int, count: int, record_bytes: int, stored_crc: int
) -> None:
    """Hash the payload and refuse it unless it matches ``stored_crc``;
    a matching file primes the verified-file memo."""
    crc = _payload_crc(fd, count, record_bytes)
    if crc != stored_crc:
        raise StorageError(
            f"{path} payload checksum mismatch (stored 0x{stored_crc:08x}, "
            f"computed 0x{crc:08x} over {count} records)"
        )
    _remember_verified(fd, stored_crc)


def _verify_payload(
    path: Path, fd: int, count: int, record_bytes: int, stored_crc: int,
    kind: str,
) -> None:
    """Prove the payload matches its stored checksum (memoized per file)."""
    if _VERIFIED_CACHE.get(_memo_key(fd)) == stored_crc:
        _metrics().count("storage.integrity.cached", 1, kind=kind)
        return
    _check_payload(path, fd, count, record_bytes, stored_crc)
    _metrics().count("storage.integrity.verify", 1, kind=kind)


def scrub_segment(path: str | os.PathLike) -> str:
    """Fully verify one segment file: header sanity plus payload checksum.

    Unlike the open-time check this never consults the verified-file
    memo — a scrub exists to catch corruption that happened *since* the
    segment was last trusted.  Returns ``"verified"``; raises
    :class:`StorageError` with the precise problem otherwise — including
    a segment without a parseable footer, since a clobbered footer byte
    must not turn verification off.
    """
    path = Path(path)
    try:
        with open(path, "rb") as file_obj:
            fd = file_obj.fileno()
            header = _check_header_page(
                path, os.pread(fd, PAGE_SIZE, 0), os.fstat(fd).st_size
            )
            # A scrubbed file is a freshly-proven file: priming the memo
            # makes the next open() of the unchanged bytes free.
            _check_payload(
                path, fd, header.count, header.record_bytes, header.crc
            )
    except FileNotFoundError:
        raise StorageError(f"no segment file at {path}") from None
    _metrics().count(
        "storage.integrity.scrub", 1, kind=segment_kind(path.name)
    )
    return "verified"


class StorageError(RuntimeError):
    """Raised for storage layer failures."""


# The storage fault point: ``None`` when disarmed, else the callable
# :func:`arm_fault` built.  A payload write (``_write_at``) and a created
# segment's publish (``close``) call it as ``fault(site, segment)`` —
# sites ``"write"``, ``"publish"`` (footer stamped, not yet renamed) and
# ``"published"`` (renamed).  Disarmed, a site costs one global read.
_armed_fault = None


def arm_fault(strike) -> None:
    """Arm the fault point with ``strike(site, segment)``, struck only
    from the calling thread: a fault injected into one task never
    strikes another thread's storage."""
    global _armed_fault
    owner = threading.get_ident()

    def fault(site: str, segment: "MappedSegment") -> None:
        if threading.get_ident() == owner:
            strike(site, segment)

    _armed_fault = fault


def disarm_fault() -> bool:
    """Disarm the fault point; ``True`` if it was armed, never struck."""
    global _armed_fault
    armed, _armed_fault = _armed_fault, None
    return armed is not None


def _pwrite_all(fd: int, data, offset: int) -> None:
    """Write a whole buffer at ``offset``, resuming on short writes.

    Bulk segment writes go through ``pwrite`` rather than the mapping:
    the page-cache write path needs no write faults, so a freshly created
    sparse segment skips the expensive first-fault/block-allocation stall
    that a store write through the mapping would take (measured ~1.4 ms
    per segment at paper scale).  ``read``s still go through the mapping
    — the unified page cache keeps both views coherent.
    """
    view = memoryview(data).cast("B")
    written = os.pwrite(fd, view, offset)
    while written < len(view):
        view = view[written:]
        offset += written
        written = os.pwrite(fd, view, offset)


def tmp_segment_path(path: str | os.PathLike) -> Path:
    """The sibling a segment is written to before its atomic publish."""
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def segment_kind(name: str) -> str:
    """A file's metric label: the leading alphabetic run of its stem.

    ``R0.seg`` → ``R``, ``RP0_1.seg`` → ``RP``, ``PAIRS_p0_0.seg`` →
    ``PAIRS`` — the stats document's per-segment section aggregates on
    these kinds, mirroring the paper's per-area disk layout
    ``[ Ri | Si | RSi | RPi | ... ]``.
    """
    stem = name.split(".", 1)[0]
    for i, char in enumerate(stem):
        if not char.isalpha():
            return stem[:i] or stem
    return stem


class MappedSegment:
    """One memory-mapped segment file of fixed-size records."""

    def __init__(
        self, path: Path, file_obj, mapping: Optional[mmap.mmap],
        layout: RecordLayout, capacity: int, count: int,
        backing_path: Optional[Path] = None, durable: bool = False,
    ) -> None:
        self.path = path
        self._file = file_obj
        # ``None`` until the first read: freshly *created* segments defer
        # their mapping, because writes go through pwrite and a created-
        # written-closed lifecycle (every spill, run, and PAIRS file)
        # never needs one.  Opened segments map eagerly as before.
        self._map = mapping
        self.layout = layout
        self.capacity = capacity
        self._count = count
        self._closed = False
        self.kind = segment_kind(path.name)
        # Where the bytes actually live right now; differs from `path`
        # until a created segment is published by close().
        self._backing = backing_path if backing_path is not None else path
        self._pending = self._backing != self.path
        self._durable = durable
        # Whether the payload (or its written extent) changed since the
        # stored checksum was valid; created segments are born dirty so
        # close() always stamps a fresh footer.
        self._dirty = self._pending
        # Streaming checksum over the written prefix [0, _stream_count).
        # While every write lands at the end of that prefix the payload
        # CRC is already known when the footer is stamped — no second
        # read of bytes this process just wrote.  A prefix short of the
        # count (reserved or positionally written slots), or ``None``
        # (an in-place rewrite, or a segment opened with pre-existing
        # records), makes the footer fall back to the full pread scan.
        self._stream_crc: Optional[int] = 0 if count == 0 else None
        self._stream_count = 0
        # Header count as last persisted; lets a read-only open close
        # without touching the file (a gratuitous header pwrite would
        # bump mtime and evict the file's verified-payload memo entry).
        self._disk_count = count if not self._pending else -1
        self._mapped_bytes = len(mapping) if mapping is not None else 0
        if self._mapped_bytes:
            _meter().map_bytes(self._mapped_bytes)
        # Block traffic per op, [batches, records]: counted by tally(),
        # reported once by close()/discard().
        self._traffic = {"read": [0, 0], "write": [0, 0], "deref": [0, 0]}

    def _mapping(self) -> mmap.mmap:
        """The mapping, materialized on first read for created segments."""
        if self._map is None:
            total = PAGE_SIZE + _round_up(
                max(1, self.capacity) * self.layout.record_bytes, PAGE_SIZE
            )
            self._map = mmap.mmap(self._file.fileno(), total)
            self._mapped_bytes = total
            _meter().map_bytes(total)
        return self._map

    # ----------------------------------------------------------- lifecycle

    @classmethod
    def create(
        cls, path: str | os.PathLike, capacity: int, record_bytes: int = 128,
        overwrite: bool = False, durable: bool = False,
    ) -> "MappedSegment":
        """newMap: create the file, size it, and map it in.

        The segment is written to a ``.tmp`` sibling and atomically
        renamed over ``path`` on :meth:`close` — until then, ``path``
        does not exist (or, with ``overwrite=True``, still holds its old
        contents).  ``overwrite=True`` is the retry-idempotence knob: a
        re-executed worker pass may legitimately replace the outputs a
        failed attempt published.
        """
        started = time.perf_counter()
        if capacity < 0:
            raise StorageError("capacity cannot be negative")
        layout = RecordLayout(record_bytes)
        path = Path(path)
        if path.exists() and not overwrite:
            raise StorageError(f"segment file already exists: {path}")
        tmp = tmp_segment_path(path)
        tmp.unlink(missing_ok=True)  # a stale orphan from a dead writer
        data_bytes = max(1, capacity) * record_bytes
        total = PAGE_SIZE + _round_up(data_bytes, PAGE_SIZE)
        # Refuse (with a classified error) a creation that would cross an
        # armed disk budget, *before* acquiring any space.
        disk_preflight(path, total)
        file_obj = open(tmp, "w+b")
        if _fcntl is not None:
            # Mark the tmp as live-writer-owned: cleanup_orphans probes
            # this lock and skips tmps whose writer still holds it.  The
            # lock dies with the fd (close/discard/process death), so a
            # crashed writer's orphan is sweepable immediately.
            try:
                _fcntl.flock(
                    file_obj.fileno(), _fcntl.LOCK_EX | _fcntl.LOCK_NB
                )
            except OSError:  # pragma: no cover - lock table exhaustion
                pass
        try:
            file_obj.truncate(total)
            _pwrite_all(
                file_obj.fileno(),
                HEADER.pack(MAGIC, record_bytes, capacity, 0),
                0,
            )
        except Exception as error:
            file_obj.close()
            tmp.unlink(missing_ok=True)
            # A full disk (ENOSPC out of ftruncate or the header write)
            # surfaces as a classified resource error, not a raw OSError.
            classified = classify_os_error(
                error, f"creating segment {path.name}"
            )
            if classified is not None:
                raise classified from error
            raise
        # No eager mmap: the mapping materializes on first read (most
        # created segments are write-only until re-opened by a reader).
        segment = cls(
            path, file_obj, None, layout, capacity, 0,
            backing_path=tmp, durable=durable,
        )
        metrics = _metrics()
        if metrics.enabled:
            metrics.count("storage.map.new", 1, kind=segment.kind)
            metrics.observe(
                "storage.map_ms",
                (time.perf_counter() - started) * 1000.0,
                op="new", kind=segment.kind,
            )
        return segment

    @classmethod
    def open(cls, path: str | os.PathLike) -> "MappedSegment":
        """openMap: map an existing segment file."""
        started = time.perf_counter()
        path = Path(path)
        if not path.exists():
            raise StorageError(f"no segment file at {path}")
        file_obj = open(path, "r+b")
        try:
            mapping = mmap.mmap(file_obj.fileno(), 0)
        except Exception:
            file_obj.close()
            raise
        try:
            header = _check_header_page(path, mapping, len(mapping))
            _verify_payload(
                path, file_obj.fileno(), header.count, header.record_bytes,
                header.crc, segment_kind(path.name),
            )
        except StorageError:
            mapping.close()
            file_obj.close()
            raise
        segment = cls(
            path, file_obj, mapping, RecordLayout(header.record_bytes),
            header.capacity, header.count,
        )
        metrics = _metrics()
        if metrics.enabled:
            metrics.count("storage.map.open", 1, kind=segment.kind)
            metrics.observe(
                "storage.map_ms",
                (time.perf_counter() - started) * 1000.0,
                op="open", kind=segment.kind,
            )
        return segment

    @staticmethod
    def record_count(path: str | os.PathLike) -> int:
        """Read a segment's record count from its header without mapping it.

        Sizing a pass's output (e.g. a PAIRS segment) needs only the counts
        of its input files; one header-page read is far cheaper than
        building and tearing down a whole mapping per file.
        """
        return _read_header(path).count

    @staticmethod
    def delete(path: str | os.PathLike) -> None:
        """deleteMap: destroy a segment and its data."""
        path = Path(path)
        if not path.exists():
            raise StorageError(f"no segment file at {path}")
        path.unlink()
        _metrics().count("storage.map.delete", 1, kind=segment_kind(path.name))

    def flush(self) -> None:
        self._check_open()
        self._write_count()
        if self._dirty:
            self._write_footer()
        if self._map is not None:
            self._map.flush()
        _metrics().count("storage.flush", 1, kind=self.kind)

    def close(self) -> None:
        """Unmap the segment and, if it was freshly created, publish it:
        the ``.tmp`` backing file is atomically renamed to the final path,
        so readers only ever see complete segments.

        No ``fsync`` here by default: every write is a ``pwrite`` into
        the unified page cache, so readers that re-open the file see it,
        and a *process* crash after the rename cannot tear the data.
        Segments created with ``durable=True`` additionally fsync before
        the rename for power-failure safety — closing hundreds of
        temporary spill files per join must not pay a synchronous
        writeback each, so that is opt-in.
        """
        if self._closed:
            return
        self._report_traffic()
        self._write_count()
        stamped = None
        if self._dirty:
            stamped = self._write_footer()
        if self._pending and self._durable:
            os.fsync(self._file.fileno())
        if self._map is not None:
            self._map.close()
        if self._mapped_bytes:
            _meter().unmap_bytes(self._mapped_bytes)
        try:
            if self._pending:
                fault = _armed_fault
                if fault is not None:
                    fault("publish", self)
                os.replace(self._backing, self.path)
                self._pending = False
                if fault is not None:
                    # Before the memo is primed: a fault that rots the
                    # published bytes must not leave them trusted.
                    fault("published", self)
            if stamped is not None:
                # The bytes behind this fd were hashed as they were
                # written; prime the verified-file memo so a same-process
                # re-open is free.  Primed after the publish, through the
                # still-open fd: the rename bumps ctime, which the key
                # holds.
                _remember_verified(self._file.fileno(), stamped)
        finally:
            self._file.close()
            self._closed = True

    def discard(self) -> None:
        """Close *without* publishing (idempotent, the failure path).

        A created-but-unpublished segment's ``.tmp`` backing file is
        removed; an opened segment is simply unmapped with its header
        count left as it was on disk, so partial appends from a failed
        pass are never made visible.
        """
        if self._closed:
            return
        self._report_traffic()
        if self._map is not None:
            self._map.close()
        self._file.close()
        self._closed = True
        if self._mapped_bytes:
            _meter().unmap_bytes(self._mapped_bytes)
        if self._pending:
            self._backing.unlink(missing_ok=True)
            self._pending = False

    def __enter__(self) -> "MappedSegment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._pending:
            self.discard()
        else:
            self.close()

    # ------------------------------------------------------------ metadata
    #
    # The header page has ~4K of slack after the fixed header; segments
    # expose it as a small application blob (e.g. the grace spill files
    # store their per-bucket directory there, so one file can carry many
    # bucket-grouped runs without a sidecar).

    def write_meta(self, data: bytes) -> None:
        """Store an application blob in the header page's spare space."""
        self._check_open()
        if len(data) > META_CAPACITY:
            raise StorageError(
                f"meta blob of {len(data)} bytes exceeds the header page's "
                f"{META_CAPACITY} spare bytes"
            )
        start = HEADER.size
        _pwrite_all(
            self._file.fileno(), _META_LEN.pack(len(data)) + data, start
        )

    def read_meta(self) -> bytes:
        """Fetch the application blob (empty if never written)."""
        self._check_open()
        start = HEADER.size
        mapping = self._mapping()
        (length,) = _META_LEN.unpack_from(mapping, start)
        if length > META_CAPACITY:
            raise StorageError(f"corrupt meta length {length} in {self.path.name}")
        return bytes(
            mapping[start + _META_LEN.size : start + _META_LEN.size + length]
        )

    # -------------------------------------------------------------- access

    def __len__(self) -> int:
        return self._count

    def reserve(self, count: int) -> None:
        """Extend the record count to ``count``, declaring the zero-filled
        records in between valid.

        A writer that lays a segment out first (a bucketed spill file's
        extents) reserves its whole count, then fills it in place with
        :meth:`write_batch`; a write past the count is rejected, because
        the gap it left would be read back as records.
        """
        self._check_open()
        if count > self.capacity:
            raise StorageError(
                f"cannot reserve {count} records in {self.path.name} "
                f"(capacity {self.capacity})"
            )
        if count > self._count:
            # The streamed prefix is untouched: the footer re-reads the
            # payload unless later writes stream over the reserved slots.
            self._count = count
            self._dirty = True

    # ------------------------------------------------------------- batches
    #
    # Block-at-a-time access, the only record access there is: a read is
    # a memoryview straight into the mapping — zero copies — that callers
    # view as numpy records; a write is one pwrite of whole packed records
    # through ``_write_at``, which also extends the streaming CRC.
    # Callers must release (or drop) the views before closing the
    # segment, since a mapping with exported buffers cannot be unmapped.

    def read_batch(self, start: int, count: int) -> memoryview:
        """A zero-copy view of ``count`` records beginning at ``start``."""
        self._check_open()
        if count < 0:
            raise StorageError(f"batch count cannot be negative: {count}")
        if not 0 <= start <= self._count or start + count > self._count:
            raise StorageError(
                f"batch [{start}, {start + count}) outside [0, {self._count}) "
                f"in {self.path.name}"
            )
        record_bytes = self.layout.record_bytes
        lo = PAGE_SIZE + start * record_bytes
        return memoryview(self._mapping())[lo : lo + count * record_bytes]

    def iter_batches(
        self,
        batch_records: int = 4096,
        start: int = 0,
        stop: int | None = None,
    ) -> Iterator[memoryview]:
        """Views covering records ``[start, stop)``, ``batch_records`` at a time.

        Defaults cover every written record; a narrower window is one
        sorted run's extent.  The caller is done with a view when it asks
        for the next one, so the window is one :class:`ReadStream`: its
        consumed pages are released as the scan moves on.
        """
        if batch_records <= 0:
            raise StorageError(f"batch size must be positive: {batch_records}")
        stop = self._count if stop is None else min(stop, self._count)
        start = max(0, start)
        pages = self.stream(start, stop)
        for start in range(start, stop, batch_records):
            count = min(batch_records, stop - start)
            self.tally("read", count)
            yield self.read_batch(start, count)
            pages.consumed(start + count)

    def stream(self, start: int = 0, stop: int | None = None) -> "ReadStream":
        """A release watermark for one sequential reader of records
        ``[start, stop)`` (default: every written record)."""
        return ReadStream(self, start, self._count if stop is None else stop)

    def _release(self, lo: int, hi: int) -> None:
        """Drop this process's mapping of file bytes ``[lo, hi)``
        (``lo`` page-aligned); the page cache keeps them."""
        if _DONTNEED is not None and self._map is not None and not self._closed:
            self._map.madvise(_DONTNEED, lo, hi - lo)

    def append_batch(self, data: bytes | bytearray | memoryview) -> int:
        """Append a contiguous run of packed records in one slice write.

        Returns the index of the first appended record.
        """
        start = self._count
        self._count = start + self._write_at(start, data, self.capacity)
        return start

    def write_batch(
        self, index: int, data: bytes | bytearray | memoryview
    ) -> None:
        """Write packed records at ``index`` inside the reserved count.

        The positional twin of :meth:`append_batch` for writers that lay a
        segment out first (:meth:`reserve`) and fill it in place.  A write
        at the end of the streamed prefix extends the streaming CRC; any
        other leaves the footer to one payload re-read at close.
        """
        self._write_at(index, data, self._count)

    def _write_at(self, index: int, data, limit: int) -> int:
        """pwrite whole records at ``index``, ending by ``limit``.

        Callers hand over bytes, packed scratch arrays, or (n, k) u64
        blocks alike.  Returns the record count written.
        """
        self._check_open()
        data = memoryview(data).cast("B")
        count, partial = divmod(len(data), self.layout.record_bytes)
        if partial:
            raise StorageError(
                f"batch of {len(data)} bytes is not a whole number of "
                f"{self.layout.record_bytes}-byte records"
            )
        if index < 0 or index + count > limit:
            raise StorageError(
                f"batch [{index}, {index + count}) outside [0, {limit}) in "
                f"{self.path.name} ({self._count} of {self.capacity} "
                "records in use)"
            )
        if not count:
            return 0
        fault = _armed_fault
        if fault is not None:
            fault("write", self)
        lo = PAGE_SIZE + index * self.layout.record_bytes
        _pwrite_all(self._file.fileno(), data, lo)
        self._dirty = True
        if self._stream_crc is not None:
            if index == self._stream_count:
                self._stream_crc = crc32(data, self._stream_crc)
                self._stream_count = index + count
            elif index < self._stream_count:
                self._stream_crc = None  # rewrote streamed bytes
        self.tally("write", count)
        return count

    def tally(self, op: str, records: int) -> None:
        """Count one batch of ``records`` moved by ``op`` — ``"read"``,
        ``"write"`` or ``"deref"`` — into the segment's traffic tally."""
        counts = self._traffic[op]
        counts[0] += 1
        counts[1] += records

    # ------------------------------------------------------------ internal

    def _report_traffic(self) -> None:
        """Hand the traffic tally to the active registry, then zero it.

        Each op that moved a batch reports ``storage.<op>.batches``,
        ``.records`` and ``.bytes`` (records × record size) under this
        segment's kind — the values per-batch counting would sum to.
        """
        traffic = self._traffic
        self._traffic = {op: [0, 0] for op in traffic}
        metrics = _metrics()
        if not metrics.enabled:
            return
        for op, (batches, records) in traffic.items():
            if batches:
                metrics.count(f"storage.{op}.batches", batches, kind=self.kind)
                metrics.count(f"storage.{op}.records", records, kind=self.kind)
                metrics.count(
                    f"storage.{op}.bytes",
                    records * self.layout.record_bytes,
                    kind=self.kind,
                )

    def _write_count(self) -> None:
        if not self._file.closed and self._count != self._disk_count:
            _pwrite_all(
                self._file.fileno(),
                HEADER.pack(
                    MAGIC, self.layout.record_bytes, self.capacity,
                    self._count,
                ),
                0,
            )
            self._disk_count = self._count

    def _write_footer(self) -> int:
        """Stamp the integrity footer over the current payload.

        Sequentially-appended segments (every spill, run, and PAIRS file)
        already hold the payload CRC in the append stream — stamping is
        then one pwrite, not a full re-read of bytes this process just
        wrote.  Anything else pays the scan once, which re-seeds the
        stream so later appends extend it incrementally.
        """
        fd = self._file.fileno()
        if self._stream_crc is not None and self._stream_count == self._count:
            crc = self._stream_crc
        else:
            crc = _payload_crc(fd, self._count, self.layout.record_bytes)
            self._stream_crc = crc
            self._stream_count = self._count
        _pwrite_all(
            fd,
            _FOOTER.pack(INTEGRITY_MAGIC, _CRC_ALGO, crc, self._count),
            FOOTER_OFFSET,
        )
        self._dirty = False
        return crc

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"segment {self.path.name} is closed")


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def step_extents(count: int, record_bytes: int) -> Iterator[Tuple[int, int]]:
    """Record ranges ``[lo, hi)`` covering ``[0, count)``, each ending at
    the last whole record before a 2 MiB file offset (the last range at
    ``count``).

    The page cache sizes its folios by the write that fills them, and a
    mapped read faults in a folio at a time.  Appends cut here leave the
    folios one whole-file write would: on a Linux 6.18 ext4 host a
    12.5 MiB partition appended this way reads back in 12 faults, as
    after one write, where 512 KiB appends starting 4 KiB past each
    boundary left 100.
    """
    lo = 0
    boundary = _RELEASE_STEP
    while lo < count:
        hi = min(count, max(lo + 1, (boundary - PAGE_SIZE) // record_bytes))
        yield lo, hi
        lo = hi
        boundary += _RELEASE_STEP


class ReadStream:
    """One sequential reader's release watermark in a segment.

    The reader owns records ``[start, stop)`` and reports with
    :meth:`consumed` how far it has copied them out.  Each time that
    frontier crosses a 2 MiB file offset the pages behind it are released;
    at ``stop`` the rest go, up to the last whole page.  Only pages wholly
    inside the reader's own records are released, so readers of
    neighbouring extents — interleaved merge cursors over one run file —
    never release each other's unread pages, and each keeps its own
    watermark.
    """

    __slots__ = ("_segment", "_record_bytes", "_released", "_stop")

    def __init__(self, segment: MappedSegment, start: int, stop: int) -> None:
        self._segment = segment
        self._record_bytes = segment.layout.record_bytes
        self._released = _round_up(
            PAGE_SIZE + start * self._record_bytes, PAGE_SIZE
        )
        self._stop = stop

    def consumed(self, end: int) -> None:
        """Records before ``end`` have been copied out of the mapping."""
        hi = PAGE_SIZE + end * self._record_bytes
        hi -= hi % (PAGE_SIZE if end >= self._stop else _RELEASE_STEP)
        if hi > self._released:
            self._segment._release(self._released, hi)
            self._released = hi


class SegmentHeader(NamedTuple):
    """What a trusted header page says about a published segment."""

    record_bytes: int
    capacity: int
    count: int
    #: The integrity footer's payload CRC.
    crc: int
    #: The application blob (filled by :func:`_read_header` only).
    meta: bytes = b""


def _check_header_page(path: Path, page, file_bytes: int) -> SegmentHeader:
    """The header page of a segment ``file_bytes`` long, checked.

    The one check every reader applies before trusting a segment:
    :meth:`MappedSegment.open` passes its mapping, :func:`scrub_segment`
    and :func:`_read_header` a page they read.  A writer that died
    mid-pass can leave a file whose header disagrees with its data area,
    and a bad sector can clobber the footer; accepting either would
    surface garbage records, so the file is refused outright and the
    caller re-creates it (worker passes are idempotent).  A file without
    a parseable footer is refused too: one clobbered footer byte must not
    turn payload verification off.
    """
    if len(page) < HEADER.size:
        raise StorageError(f"{path} is not a segment file")
    magic, record_bytes, capacity, count = HEADER.unpack_from(page)
    if magic != MAGIC:
        problem = "is not a segment file"
    elif record_bytes < HEADER_BYTES:
        problem = f"declares an unusable record size {record_bytes}"
    elif count > capacity:
        problem = (
            f"is torn: header claims {count} records but capacity is "
            f"{capacity}"
        )
    elif file_bytes < PAGE_SIZE + capacity * record_bytes:
        problem = (
            f"is torn: {file_bytes} bytes on disk cannot hold the "
            f"declared {capacity}-record data area"
        )
    else:
        footer, _algo, crc, covered = _FOOTER.unpack_from(page, FOOTER_OFFSET)
        if footer != INTEGRITY_MAGIC:
            problem = "has no integrity footer"
        elif covered != count:
            problem = (
                f"is corrupt: integrity footer covers {covered} records "
                f"but the header claims {count}"
            )
        else:
            return SegmentHeader(record_bytes, capacity, count, crc)
    raise StorageError(f"{path} {problem}")


def _read_header(path: str | os.PathLike) -> SegmentHeader:
    """A segment's checked header page and meta blob, without mapping it.

    Never touches the payload: callers size work from what a publisher
    wrote into the header page, and whoever later maps the segment
    verifies its bytes.
    """
    path = Path(path)
    try:
        with open(path, "rb") as file_obj:
            fd = file_obj.fileno()
            page = os.pread(fd, PAGE_SIZE, 0)
            header = _check_header_page(path, page, os.fstat(fd).st_size)
    except FileNotFoundError:
        raise StorageError(f"no segment file at {path}") from None
    (length,) = _META_LEN.unpack_from(page, HEADER.size)
    if length > META_CAPACITY:
        raise StorageError(f"corrupt meta length {length} in {path.name}")
    start = HEADER.size + _META_LEN.size
    return header._replace(meta=page[start : start + length])


# ------------------------------------------------------- timed map helpers

def timed_new_map(
    path: str | os.PathLike, capacity: int, record_bytes: int = 128
) -> Tuple[MappedSegment, float]:
    """newMap plus its wall-clock cost in milliseconds (real Figure 1b)."""
    start = time.perf_counter()
    segment = MappedSegment.create(path, capacity, record_bytes)
    return segment, (time.perf_counter() - start) * 1000.0


def timed_open_map(path: str | os.PathLike) -> Tuple[MappedSegment, float]:
    """openMap plus its wall-clock cost in milliseconds."""
    start = time.perf_counter()
    segment = MappedSegment.open(path)
    return segment, (time.perf_counter() - start) * 1000.0


def timed_delete_map(path: str | os.PathLike) -> float:
    """deleteMap plus its wall-clock cost in milliseconds."""
    start = time.perf_counter()
    MappedSegment.delete(path)
    return (time.perf_counter() - start) * 1000.0
