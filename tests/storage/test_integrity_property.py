"""Property tests for the payload-checksum integrity footer.

Hypothesis drives segment lifecycles — create, append arbitrary records,
close (which stamps the CRC footer), reopen (which verifies it) — and
corruption cases: any single flipped payload bit, or a truncated data
area, must fail the scrub.  Edge cases the strategies always reach:
zero-record and one-record segments.  Every property runs under each CRC
engine that loads (``crc_engine``, one ``with`` block per engine), and the
engines must agree with ``zlib.crc32`` byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import time
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel.engine.checkpoint import CheckpointWriter
from repro.parallel.faults import flip_payload_bit, truncate_payload
from repro.storage import segment
from repro.storage.segment import (
    PAGE_SIZE,
    MappedSegment,
    StorageError,
    _payload_crc,
    _read_header,
    _verify_payload,
    scrub_segment,
)
from repro.storage.store import Store
from tests.conftest import clobber_footer

RECORD_BYTES = 128
CHUNK_RECORDS = segment._CRC_CHUNK // RECORD_BYTES
#: The CRC engines that load here: zlib always, libdeflate where it does.
ENGINES = ("libdeflate", "zlib")
if segment.CRC_ENGINE != "libdeflate":
    ENGINES = ("zlib",)

records_strategy = st.lists(
    st.binary(min_size=RECORD_BYTES, max_size=RECORD_BYTES),
    min_size=0,
    max_size=12,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@contextlib.contextmanager
def crc_engine(name):
    """Hash with one engine, on a fresh verified-file memo.

    ``zlib`` forces ``zlib.crc32``; ``libdeflate`` is the engine the
    module resolved (skipped where the library does not load).
    """
    if name == "libdeflate" and segment.CRC_ENGINE != "libdeflate":
        pytest.skip("libdeflate.so.0 does not load on this host")
    with pytest.MonkeyPatch.context() as patch:
        if name == "zlib":
            patch.setattr(segment, "crc32", zlib.crc32)
        patch.setattr(segment, "_VERIFIED_CACHE", {})
        yield


def publish(path, records):
    with MappedSegment.create(
        path, capacity=max(len(records), 1), record_bytes=RECORD_BYTES
    ) as seg:
        for record in records:  # one append each: the CRC streams across
            seg.append_batch(bytearray(record))  # writable: ctypes-hashable


@SETTINGS
@given(records=records_strategy)
def test_checksum_round_trip(tmp_path, records):
    """close() stamps a footer that open()/scrub() verify, for any
    payload — including the empty segment and the single record."""
    for name in ENGINES:
        with crc_engine(name):
            path = tmp_path / f"p{len(records)}.seg"
            path.unlink(missing_ok=True)
            publish(path, records)
            assert scrub_segment(path) == "verified"
            header = _read_header(path)
            assert header.crc == zlib.crc32(b"".join(records))
            assert header.count == len(records)
            with MappedSegment.open(path) as seg:
                with seg.read_batch(0, len(seg)) as view:
                    assert bytes(view) == b"".join(records)
            assert MappedSegment.record_count(path) == len(records)


@SETTINGS
@given(
    records=records_strategy.filter(bool),
    record=st.integers(min_value=0, max_value=1 << 20),
    bit=st.integers(min_value=0, max_value=7),
)
def test_any_flipped_bit_fails_the_scrub(tmp_path, records, record, bit):
    for name in ENGINES:
        with crc_engine(name):
            path = tmp_path / "flip.seg"
            path.unlink(missing_ok=True)
            publish(path, records)
            flip_payload_bit(path, record=record, bit=bit)
            with pytest.raises(StorageError):
                scrub_segment(path)
            with pytest.raises(StorageError):
                MappedSegment.open(path).close()


@SETTINGS
@given(records=records_strategy.filter(lambda r: len(r) >= 2))
def test_truncated_payload_fails_the_scrub(tmp_path, records):
    for name in ENGINES:
        with crc_engine(name):
            path = tmp_path / "trunc.seg"
            path.unlink(missing_ok=True)
            publish(path, records)
            truncate_payload(path)
            with pytest.raises(StorageError):
                scrub_segment(path)


@SETTINGS
@given(records=records_strategy)
def test_rewritten_identical_bytes_still_verify(tmp_path, records):
    """The CRC binds content, not identity: flipping a bit and flipping
    it back restores a verifiable segment.  The scrub never consults the
    verified-file memo, so each verdict here is a fresh read."""
    for name in ENGINES:
        with crc_engine(name):
            path = tmp_path / "re.seg"
            path.unlink(missing_ok=True)
            publish(path, records)
            assert scrub_segment(path) == "verified"
            if records:
                flip_payload_bit(path, record=0, bit=2)
                with pytest.raises(StorageError):
                    scrub_segment(path)
                flip_payload_bit(path, record=0, bit=2)
            assert scrub_segment(path) == "verified"


def test_rot_that_restores_mtime_is_not_served_from_the_memo(tmp_path):
    """Writing a byte and setting mtime back (``os.utime``) leaves size,
    inode and mtime as the memo saw them; the memo key's ctime cannot be
    set back, so the next open re-verifies and refuses the segment."""
    for name in ENGINES:
        with crc_engine(name):
            path = tmp_path / f"rot-{name}.seg"
            publish(path, [bytes([7]) * RECORD_BYTES] * 3)
            MappedSegment.open(path).close()  # verified or memo-primed
            before = os.stat(path)
            time.sleep(0.02)  # past the coarse timestamp tick of the publish
            fd = os.open(path, os.O_RDWR)
            try:
                os.pwrite(fd, b"\x08", PAGE_SIZE + RECORD_BYTES)
            finally:
                os.close(fd)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert os.stat(path).st_mtime_ns == before.st_mtime_ns
            with pytest.raises(StorageError, match="checksum mismatch"):
                MappedSegment.open(path).close()


# ------------------------------------------------------------ CRC engines

payloads = st.integers(min_value=0, max_value=20_480)


def as_form(data: bytes, form: str):
    """``data`` as a buffer of the given kind, holding the same bytes."""
    if form == "bytes":  # read-only
        return data
    if form == "bytearray":
        return bytearray(data)
    if form == "numpy":
        return np.frombuffer(bytearray(data), dtype=np.uint8)
    if form == "u64-rows":  # an (n, 4) u64 block, as the kernels hand over
        return np.frombuffer(bytearray(data), dtype=np.uint64).reshape(-1, 4)
    # A memoryview slice starting at an odd address offset.
    backing = bytearray(3) + bytearray(data) + bytearray(5)
    return memoryview(backing)[3 : 3 + len(data)]


@SETTINGS
@given(
    size=payloads,
    fill=st.integers(min_value=0, max_value=2**32 - 1),
    cuts=st.lists(payloads, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    form=st.sampled_from(
        ["bytes", "bytearray", "numpy", "u64-rows", "odd-slice"]
    ),
)
def test_crc_helper_equals_zlib(size, fill, cuts, seed, form):
    """The resolved engine's ``crc32`` is ``zlib.crc32``: whole, and
    streamed across any split points from any seed, for every buffer
    kind the writers hand it — empty input included."""
    unit = 32 if form == "u64-rows" else 1  # whole (n, 4) u64 rows
    size -= size % unit
    data = np.random.default_rng(fill).integers(
        0, 256, size, dtype=np.uint8
    ).tobytes()
    expected = zlib.crc32(data, seed)
    assert segment.crc32(as_form(data, form), seed) == expected
    crc, start = seed, 0
    for stop in sorted(min(cut - cut % unit, size) for cut in cuts) + [size]:
        crc = segment.crc32(as_form(data[start:stop], form), crc)
        start = stop
    assert crc == expected


@pytest.mark.parametrize(
    ("writer", "reader"), [("libdeflate", "zlib"), ("zlib", "libdeflate")]
)
def test_segment_published_under_one_engine_verifies_under_the_other(
    tmp_path, writer, reader
):
    """Streamed and scanned footers alike: a segment written under one
    engine opens (a fresh, memo-free verify) and scrubs under the other."""
    payload = np.random.default_rng(34).integers(
        0, 256, 40 * RECORD_BYTES, dtype=np.uint8
    )
    streamed, scanned = tmp_path / "streamed.seg", tmp_path / "scanned.seg"
    with crc_engine(writer):
        with MappedSegment.create(streamed, 40, RECORD_BYTES) as seg:
            seg.append_batch(payload)
        with MappedSegment.create(scanned, 40, RECORD_BYTES) as seg:
            seg.reserve(40)  # laid out first: close() scans the payload
            seg.write_batch(0, payload)
    with crc_engine(reader):
        for path in (streamed, scanned):
            assert _read_header(path).crc == zlib.crc32(payload)
            with MappedSegment.open(path) as seg:
                assert len(seg) == 40
            assert scrub_segment(path) == "verified"


def write_payload_file(path, payload: bytes) -> int:
    """A header page of zeros followed by ``payload``; returns an fd."""
    path.write_bytes(bytes(PAGE_SIZE) + payload)
    return os.open(path, os.O_RDONLY)


@pytest.mark.parametrize(
    "records",
    [0, CHUNK_RECORDS, CHUNK_RECORDS + 1],
    ids=["empty", "one-chunk", "chunk-plus-one-record"],
)
def test_payload_crc_never_hashes_stale_buffer_bytes(tmp_path, records):
    """The scan re-reads every chunk into one buffer: each chunk hashes
    exactly the bytes it read, never what the previous chunk left."""
    payload = np.random.default_rng(records).integers(
        0, 256, records * RECORD_BYTES, dtype=np.uint8
    ).tobytes()
    fd = write_payload_file(tmp_path / "payload.bin", payload)
    try:
        for name in ENGINES:
            with crc_engine(name):
                crc = _payload_crc(fd, records, RECORD_BYTES)
                assert crc == zlib.crc32(payload)
    finally:
        os.close(fd)


def test_payload_crc_past_the_end_hashes_what_is_there(tmp_path):
    """A count beyond the file hashes the bytes actually present, which
    verification reports as a checksum mismatch, not as stale bytes."""
    present = CHUNK_RECORDS + 1
    claimed = 2 * present + 3
    payload = np.random.default_rng(7).integers(
        0, 256, present * RECORD_BYTES, dtype=np.uint8
    ).tobytes()
    path = tmp_path / "short.bin"
    fd = write_payload_file(path, payload)
    whole = zlib.crc32(payload + bytes((claimed - present) * RECORD_BYTES))
    try:
        for name in ENGINES:
            with crc_engine(name):
                crc = _payload_crc(fd, claimed, RECORD_BYTES)
                assert crc == zlib.crc32(payload)
                with pytest.raises(StorageError, match="checksum mismatch"):
                    _verify_payload(
                        path, fd, claimed, RECORD_BYTES, whole, "T"
                    )
    finally:
        os.close(fd)


def test_clobbered_footer_is_refused_at_open(tmp_path):
    """A footer that no longer parses does not turn verification off:
    the rotten payload behind it is never served."""
    path = tmp_path / "RUN0.seg"
    publish(path, [bytes([i]) * RECORD_BYTES for i in range(3)])
    clobber_footer(path)
    with pytest.raises(StorageError, match="no integrity footer"):
        MappedSegment.open(path)


def record_stage(path):
    """A checkpoint barrier of a stage that published ``path`` (in
    ``<root>/disk0``): with no ``begin_stage`` snapshot, every temp
    segment in the store is new."""
    store = Store(path.parent.parent, 1)
    writer = CheckpointWriter(store.root, "sort-merge", "signature")
    writer.record_stage(
        store, label="runs", kind="runs", wall_ms=1.0, count=3,
        checksum=None, totals={}, pair_files=[], plan={},
        runtime_degradations=0,
    )


@pytest.mark.parametrize(
    "reader",
    [MappedSegment.open, scrub_segment, MappedSegment.record_count,
     record_stage],
    ids=["open", "scrub", "record_count", "checkpoint_barrier"],
)
def test_clobbered_footer_is_refused_by_every_reader(tmp_path, reader):
    """Every reader of a header page applies the same check: a segment
    whose footer no longer parses is refused, never sized or recorded."""
    path = tmp_path / "disk0" / "RUN0.seg"
    path.parent.mkdir()
    publish(path, [bytes([i]) * RECORD_BYTES for i in range(3)])
    clobber_footer(path)
    with pytest.raises(StorageError, match="no integrity footer"):
        reader(path)


def test_clobbered_footer_fails_the_scrub(tmp_path):
    path = tmp_path / "disk0" / "RUN0.seg"
    path.parent.mkdir()
    publish(path, [bytes([i]) * RECORD_BYTES for i in range(3)])
    clobber_footer(path)
    with pytest.raises(StorageError, match="no integrity footer"):
        scrub_segment(path)
    report = Store(tmp_path, 1).scrub()
    assert report["verified"] == 0
    assert [failure["path"] for failure in report["failed"]] == [str(path)]
