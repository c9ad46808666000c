"""Typed relations over mapped segments.

Every relation moves records a block at a time, in stored form: whole
records (``iter_record_batches``) for kernels that only route them, u64
header columns (``iter_column_batches``, ``read_columns``,
``dereference_columns``) for kernels that compute on them, and packed
blocks (``append_columns``, ``write_buckets``, ``append_packed``) out.
Only :func:`iter_pairs_file`, which the benchmark's layer probe reads,
decodes records into Python objects.
"""

from __future__ import annotations

import os
import struct
from typing import Iterator, List, Sequence, Tuple

import numpy as _np

from repro.core.records import JoinedPair
from repro.obs.registry import active as _metrics
from repro.storage.segment import (
    META_CAPACITY,
    MappedSegment,
    StorageError,
)

DEFAULT_BATCH_RECORDS = 4096


class _RelationFile:
    """Shared plumbing for segment-backed relations."""

    def __init__(self, segment: MappedSegment) -> None:
        self.segment = segment

    def __len__(self) -> int:
        return len(self.segment)

    def close(self) -> None:
        self.segment.close()

    def abort(self) -> None:
        """Release the relation without publishing it (idempotent).

        The failure path: a freshly created relation's ``.tmp`` backing
        file is discarded, so a worker that dies mid-pass never leaves a
        half-written segment where a reader could find it.
        """
        self.segment.discard()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class RRelationFile(_RelationFile):
    """An R partition stored in one mapped segment."""

    @classmethod
    def create(
        cls, path: str | os.PathLike, capacity: int, record_bytes: int = 128,
        overwrite: bool = False,
    ) -> "RRelationFile":
        return cls(
            MappedSegment.create(path, capacity, record_bytes, overwrite)
        )

    @classmethod
    def open(cls, path: str | os.PathLike) -> "RRelationFile":
        return cls(MappedSegment.open(path))

    def iter_column_batches(
        self,
        batch_records: int = DEFAULT_BATCH_RECORDS,
        start: int = 0,
        stop: int | None = None,
    ) -> Iterator[Tuple]:
        """Iterate (rid, sptr, payload) u64 column-array batches.

        The vectorized kernels' inner shape: one dtype view per mapped
        batch, three compact column copies out, view released before the
        next step — so the mapping never holds an exported buffer.
        ``start``/``stop`` bound the record range (one sorted run's
        extent); defaults cover the whole relation.
        """
        decode = self.segment.layout.decode_columns
        for view in self.segment.iter_batches(batch_records, start, stop):
            try:
                yield decode(view)
            finally:
                view.release()

    def iter_record_batches(
        self, batch_records: int = DEFAULT_BATCH_RECORDS
    ) -> Iterator[_np.ndarray]:
        """Iterate whole records: owned ``(n,)`` arrays of ``V<record_bytes>``.

        The shape for kernels that only route records.  Gathering void
        items moves every byte, padding included, so a routed record is
        appended (``segment.append_batch``) exactly as stored; gathering
        the structured ``np_dtype`` would not — numpy copies only its named
        fields.  ``batch.view(layout.np_dtype)`` reads the header fields.
        Each batch is one copy out of the mapping, made before the yield,
        so no view outlives the step.
        """
        item = _np.dtype((_np.void, self.segment.layout.record_bytes))
        for view in self.segment.iter_batches(batch_records):
            with view:
                batch = _np.frombuffer(view, dtype=item).copy()
            yield batch

    def append_columns(self, rid, sptr, payload) -> int:
        """Append records given as three u64 column arrays."""
        return self.segment.append_batch(
            self.segment.layout.pack_columns(rid, sptr, payload)
        )

    def read_columns(self, start: int, count: int) -> Tuple:
        """Decode ``count`` records at ``start`` into u64 column copies."""
        view = self.segment.read_batch(start, count)
        try:
            return self.segment.layout.decode_columns(view)
        finally:
            view.release()


_IRUN = struct.Struct("<Q")


class SortedRunsFile(RRelationFile):
    """One sort-run task's sorted runs, back to back in one segment.

    Run ``k`` is records ``[k * irun, min((k + 1) * irun, n))``: every run
    but the last holds exactly ``irun`` records, so the whole run
    directory is one number, kept in the header page's meta blob.  The
    cutter appends its runs in cut order (:meth:`append_run`) and
    publishes once; the merge opens the segment once and reads each run
    as an extent (:meth:`extents`).
    """

    def __init__(self, segment: MappedSegment, irun: int) -> None:
        super().__init__(segment)
        self.irun = irun

    @classmethod
    def create(
        cls, path: str | os.PathLike, capacity: int, irun: int,
        record_bytes: int = 128, overwrite: bool = False,
    ) -> "SortedRunsFile":
        if irun < 1:
            raise StorageError(f"a run holds at least one record, not {irun}")
        segment = MappedSegment.create(path, capacity, record_bytes, overwrite)
        segment.write_meta(_IRUN.pack(irun))
        return cls(segment, irun)

    @classmethod
    def open(cls, path: str | os.PathLike) -> "SortedRunsFile":
        segment = MappedSegment.open(path)
        meta = segment.read_meta()
        irun = _IRUN.unpack(meta)[0] if len(meta) == _IRUN.size else 0
        if not irun:
            segment.close()
            raise StorageError(f"{path} records no run length")
        return cls(segment, irun)

    def extents(self) -> List[Tuple[int, int]]:
        """Each run's ``[start, stop)`` record range, in cut order."""
        n, irun = len(self), self.irun
        return [(lo, min(lo + irun, n)) for lo in range(0, n, irun)]

    def append_run(self, data) -> int:
        """Append one sorted run of packed records; returns its start.

        Refused if the previous run was short or this one is longer than
        ``irun``: either would break the extents every reader derives.
        """
        records = memoryview(data).nbytes // self.segment.layout.record_bytes
        if len(self) % self.irun or records > self.irun:
            raise StorageError(
                f"{self.segment.path.name}: a {records}-record run after "
                f"{len(self)} records breaks the {self.irun}-record extents"
            )
        return self.segment.append_batch(data)


class SRelationFile(_RelationFile):
    """An S partition stored in one mapped segment.

    S-objects sit at the offset their local index names — the "exact
    positioning" that lets a virtual pointer dereference without any
    swizzling or translation table.
    """

    @classmethod
    def create(
        cls, path: str | os.PathLike, capacity: int, record_bytes: int = 128,
        overwrite: bool = False,
    ) -> "SRelationFile":
        return cls(
            MappedSegment.create(path, capacity, record_bytes, overwrite)
        )

    @classmethod
    def open(cls, path: str | os.PathLike) -> "SRelationFile":
        return cls(MappedSegment.open(path))

    def dereference_columns(self, offsets) -> Tuple:
        """Follow a batch of pointer offsets: gather (sid, value) columns.

        One bounds check for the whole batch, one dtype view over the
        whole written area, and two fancy-indexed field gathers (8 bytes
        per record per field — the payload column is not materialized).
        """
        if len(offsets) == 0:
            empty = _np.empty(0, dtype=_np.uint64)
            return empty, empty.copy()
        count = len(self.segment)
        if int(offsets.max()) >= count:
            raise StorageError(
                f"pointer offset outside [0, {count}) in "
                f"{self.segment.path.name}"
            )
        metrics = _metrics()
        if metrics.enabled:
            kind = self.segment.kind
            metrics.count("storage.deref.batches", 1, kind=kind)
            metrics.count("storage.deref.records", len(offsets), kind=kind)
            metrics.count(
                "storage.deref.bytes",
                len(offsets) * self.segment.layout.record_bytes,
                kind=kind,
            )
        view = self.segment.read_batch(0, count)
        try:
            arr = _np.frombuffer(view, dtype=self.segment.layout.np_dtype)
            sid = arr["f0"][offsets]
            value = arr["f1"][offsets]
            del arr
        finally:
            view.release()
        return sid, value


# ------------------------------------------------------------ bucketed files

_DIR_COUNT = struct.Struct("<Q")
_DIR_ENTRY = struct.Struct("<QQ")  # start, count


def _directory_of(meta: bytes, path) -> List[tuple]:
    """The ``(start, count)`` bucket directory stored in a meta blob."""
    if len(meta) < _DIR_COUNT.size:
        raise StorageError(f"{path} has no bucket directory")
    (buckets,) = _DIR_COUNT.unpack_from(meta)
    return [
        _DIR_ENTRY.unpack_from(meta, _DIR_COUNT.size + b * _DIR_ENTRY.size)
        for b in range(buckets)
    ]


class BucketedRFile(_RelationFile):
    """R records grouped by hash bucket inside one mapped segment.

    One file holds all of one contributor's buckets for one target,
    bucket-contiguous, with the per-bucket ``(start, count)`` directory
    stored in the segment's spare header-page space — a file fan-out of
    ``D·D`` per partition pass, not ``D·K·D``, whatever the memory budget.
    The writer lays the file out once from known per-bucket counts
    (:meth:`create_laid_out`) and fills each bucket's extent front to back
    as records arrive (:meth:`write_buckets`), so any number of flushes
    produce the bytes one flush would; it refuses to publish unless every
    extent is exactly full.  The probe side reads bucket-at-a-time (its
    memory bound is unchanged).
    """

    def __init__(
        self,
        segment: MappedSegment,
        directory: List[tuple],
        writer: bool = False,
    ) -> None:
        super().__init__(segment)
        self._directory = directory
        self._writer = writer
        # Next free slot of each bucket's extent (writers only).
        self._cursors = [start for start, _count in directory]

    @classmethod
    def create_laid_out(
        cls,
        path: str | os.PathLike,
        counts: Sequence[int],
        record_bytes: int = 128,
        overwrite: bool = False,
    ) -> "BucketedRFile":
        """newMap a file whose bucket ``b`` holds exactly ``counts[b]``.

        Extents are packed in bucket order (empty buckets keep the
        ``(0, 0)`` entry) and the whole count is reserved up front.
        """
        needed = _DIR_COUNT.size + len(counts) * _DIR_ENTRY.size
        if needed > META_CAPACITY:
            raise StorageError(
                f"{len(counts)} buckets need a {needed}-byte directory; the "
                f"header page holds {META_CAPACITY}"
            )
        directory = []
        total = 0
        for count in map(int, counts):
            directory.append((total, count) if count else (0, 0))
            total += count
        segment = MappedSegment.create(path, total, record_bytes, overwrite)
        segment.reserve(total)
        return cls(segment, directory, writer=True)

    @classmethod
    def open(cls, path: str | os.PathLike) -> "BucketedRFile":
        segment = MappedSegment.open(path)
        try:
            directory = _directory_of(segment.read_meta(), path)
        except StorageError:
            segment.close()
            raise
        return cls(segment, directory)

    @property
    def buckets(self) -> int:
        return len(self._directory)

    def write_buckets(self, data, counts: Sequence[int]) -> None:
        """Write the next records of many buckets at their cursors.

        ``data`` holds each bucket's records back-to-back in ascending
        bucket order; ``counts[b]`` is how many belong to bucket ``b``.
        Each bucket's share lands at the front of its unfilled extent;
        shares that land end to end go out as one
        :meth:`MappedSegment.write_batch`, so filling a fresh layout in
        one call is one contiguous write.  A share that would overrun its
        extent is refused before anything is written.
        """
        if len(counts) > len(self._directory):
            raise StorageError(
                f"{len(counts)} bucket counts for a "
                f"{len(self._directory)}-bucket directory"
            )
        cursors = self._cursors
        runs: List[list] = []  # [segment index, first record of data, n]
        taken = 0
        for bucket, count in enumerate(counts):
            if not count:
                continue
            start, extent = self._directory[bucket]
            cursor = cursors[bucket]
            if cursor + count > start + extent:
                raise StorageError(
                    f"{count} records overfill bucket {bucket} of "
                    f"{self.segment.path.name} "
                    f"({cursor - start} of {extent} written)"
                )
            if runs and runs[-1][0] + runs[-1][2] == cursor:
                runs[-1][2] += count
            else:
                runs.append([cursor, taken, count])
            taken += count
        record_bytes = self.segment.layout.record_bytes
        if taken * record_bytes != len(data):
            raise StorageError(
                f"bucket counts claim {taken} records but the packed "
                f"blob holds {len(data) // record_bytes}"
            )
        for bucket, count in enumerate(counts):
            cursors[bucket] += count
        data = memoryview(data).cast("B")
        for index, first, n in runs:
            self.segment.write_batch(
                index, data[first * record_bytes:(first + n) * record_bytes]
            )

    def bucket_len(self, bucket: int) -> int:
        return self._directory[bucket][1]

    def read_bucket_columns(self, bucket: int) -> Tuple:
        """One bucket's records as (rid, sptr, payload) u64 column copies."""
        start, count = self._directory[bucket]
        metrics = _metrics()
        if metrics.enabled and count:
            kind = self.segment.kind
            metrics.count("storage.read.batches", 1, kind=kind)
            metrics.count("storage.read.records", count, kind=kind)
            metrics.count(
                "storage.read.bytes",
                count * self.segment.layout.record_bytes,
                kind=kind,
            )
        view = self.segment.read_batch(start, count)
        try:
            return self.segment.layout.decode_columns(view)
        finally:
            view.release()

    def close(self) -> None:
        """Publish; a writer first proves every extent exactly full.

        A short extent would publish zero records as data, so the file is
        discarded instead and :class:`StorageError` raised.
        """
        if self._writer:
            self._writer = False
            unfilled = [
                bucket
                for bucket, (start, count) in enumerate(self._directory)
                if self._cursors[bucket] != start + count
            ]
            if unfilled:
                self.abort()
                raise StorageError(
                    f"{self.segment.path.name}: bucket extents {unfilled} "
                    "are not exactly filled; nothing published"
                )
            blob = bytearray(
                _DIR_COUNT.size + len(self._directory) * _DIR_ENTRY.size
            )
            _DIR_COUNT.pack_into(blob, 0, len(self._directory))
            for b, (start, count) in enumerate(self._directory):
                _DIR_ENTRY.pack_into(
                    blob, _DIR_COUNT.size + b * _DIR_ENTRY.size, start, count
                )
            self.segment.write_meta(bytes(blob))
        super().close()


# --------------------------------------------------------------- pair files

_PAIR = struct.Struct("<QQQQ")  # rid, sid, r_payload, s_value

PAIR_RECORD_BYTES = _PAIR.size


class PairsFile(_RelationFile):
    """Join output streamed into a mapped segment (the zero-pickle path).

    Each worker writes exactly one pairs file and returns only its
    ``(count, checksum, path)``, so no ``JoinedPair`` ever crosses a
    process boundary; the parent maps the files back in and copies the
    packed blocks out undecoded.  Pair records are exactly the packed
    4×u64 tuple — no padding, so the data area *is* the ``(n, 4)`` block.
    """

    @classmethod
    def create(
        cls, path: str | os.PathLike, capacity: int, overwrite: bool = False
    ) -> "PairsFile":
        return cls(
            MappedSegment.create(path, capacity, PAIR_RECORD_BYTES, overwrite)
        )

    @classmethod
    def open(cls, path: str | os.PathLike) -> "PairsFile":
        relation = cls(MappedSegment.open(path))
        if relation.segment.layout.record_bytes != PAIR_RECORD_BYTES:
            relation.close()
            raise StorageError(f"{path} is not a pairs file")
        return relation

    def append_packed(self, data) -> int:
        """Append an already-packed block of pair records in one write.

        The vectorized sinks build whole ``(n, 4)`` u64 blocks and hand
        their bytes straight to the mapping — no per-pair struct calls.
        """
        return self.segment.append_batch(data)

    def iter_pairs(
        self, batch_records: int = DEFAULT_BATCH_RECORDS
    ) -> Iterator[JoinedPair]:
        """Decode the pairs as objects, ``batch_records`` per mapped view.

        Only :func:`iter_pairs_file` calls this.
        """
        make = JoinedPair._make
        for view in self.segment.iter_batches(batch_records):
            try:
                yield from map(make, _PAIR.iter_unpack(view))
            finally:
                view.release()


def iter_pairs_file(
    path: str | os.PathLike, batch_records: int = DEFAULT_BATCH_RECORDS
) -> Iterator[JoinedPair]:
    """Stream one worker's pairs file as objects (bounded memory).

    The generator owns the mapping for its lifetime and decodes
    ``batch_records`` pairs per step.  Only the benchmark's layer probe
    (``bench/layers.py``) reads pairs this way; the engine's collection
    and the daemon's stream box nothing — they copy packed blocks.
    """
    with PairsFile.open(path) as relation:
        yield from relation.iter_pairs(batch_records)


def read_pair_block(path: str | os.PathLike) -> _np.ndarray:
    """One worker's pairs file as an owned ``(n, 4)`` u64 block.

    Opened (header and payload CRC verified) like any reader, read as one
    batch and copied out: no view of the mapping outlives the call.
    """
    with PairsFile.open(path) as relation:
        block = _np.empty((len(relation), 4), dtype="<u8")
        # max(1, …): an empty segment yields no batch; a zero size raises.
        for view in relation.segment.iter_batches(max(1, len(relation))):
            try:
                block[:] = _np.frombuffer(view, dtype="<u8").reshape(-1, 4)
            finally:
                view.release()
    return block


# ---------------------------------------------------------- partition files

def write_columns(
    path: str | os.PathLike, a, b, c, record_bytes: int = 128
) -> None:
    """Materialize one partition from its three u64 header columns.

    One ``pack_columns`` into the stored record format and one append,
    published by the segment's usual close (streamed CRC footer, atomic
    rename).
    """
    segment = MappedSegment.create(path, max(1, len(a)), record_bytes)
    try:
        segment.append_batch(segment.layout.pack_columns(a, b, c))
    except BaseException:
        segment.discard()
        raise
    segment.close()
