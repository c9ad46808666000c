"""Property tests for the payload-checksum integrity footer.

Hypothesis drives segment lifecycles — create, append arbitrary records,
close (which stamps the CRC footer), reopen (which verifies it) — and
corruption cases: any single flipped payload bit, or a truncated data
area, must fail the scrub.  Edge cases the strategies always reach:
zero-record and one-record segments.
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel.faults import flip_payload_bit, truncate_payload
from repro.storage.segment import (
    PAGE_SIZE,
    MappedSegment,
    StorageError,
    _read_header,
    scrub_segment,
)

RECORD_BYTES = 128

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


def publish(path, records):
    with MappedSegment.create(
        path, capacity=max(len(records), 1), record_bytes=RECORD_BYTES
    ) as seg:
        for record in records:  # one append each: the CRC streams across
            seg.append_batch(record)


@SETTINGS
@given(records=records_strategy)
def test_checksum_round_trip(tmp_path, records):
    """close() stamps a footer that open()/scrub() verify, for any
    payload — including the empty segment and the single record."""
    path = tmp_path / f"p{len(records)}.seg"
    path.unlink(missing_ok=True)
    publish(path, records)
    assert scrub_segment(path) == "verified"
    header = _read_header(path)
    assert header.crc is not None and header.count == len(records)
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
    path = tmp_path / "rot.seg"
    publish(path, [bytes([7]) * RECORD_BYTES] * 3)
    MappedSegment.open(path).close()  # verified (or memo-primed) once
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
