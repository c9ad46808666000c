"""Framing unit tests: the wire contract of the join-service protocol."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    recv_frame,
    send_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def test_round_trip_one_frame(pair):
    a, b = pair
    message = {"op": "join", "algorithm": "grace", "n": 42, "nested": {"x": [1, 2]}}
    send_frame(a, message)
    assert recv_frame(b) == message


def test_round_trip_many_frames_in_order(pair):
    a, b = pair
    for i in range(20):
        send_frame(a, {"seq": i})
    for i in range(20):
        assert recv_frame(b) == {"seq": i}


def test_clean_eof_between_frames_is_none(pair):
    a, b = pair
    send_frame(a, {"last": True})
    a.close()
    assert recv_frame(b) == {"last": True}
    assert recv_frame(b) is None


def test_eof_mid_frame_is_a_protocol_error(pair):
    a, b = pair
    # A length prefix promising 100 bytes, then death after 3.
    a.sendall(struct.pack(">I", 100) + b"abc")
    a.close()
    with pytest.raises(ProtocolError, match="mid-frame"):
        recv_frame(b)


def test_oversized_length_prefix_is_refused(pair):
    a, b = pair
    a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
    with pytest.raises(ProtocolError, match="corrupt"):
        recv_frame(b)


def test_non_json_payload_is_a_protocol_error(pair):
    a, b = pair
    payload = b"\xff\xfe not json"
    a.sendall(struct.pack(">I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="not valid JSON"):
        recv_frame(b)


def test_non_object_payload_is_a_protocol_error(pair):
    a, b = pair
    payload = b"[1, 2, 3]"
    a.sendall(struct.pack(">I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="expected an object"):
        recv_frame(b)


def test_oversized_outgoing_frame_is_refused(pair):
    a, _ = pair
    with pytest.raises(ProtocolError, match="exceeds"):
        send_frame(a, {"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_large_frame_survives_chunked_delivery(pair):
    a, b = pair
    message = {"blob": "y" * 300_000}  # far beyond one recv() chunk

    # sendall on a socketpair can block against an unread peer buffer, so
    # feed from a thread while the other end drains.
    sender = threading.Thread(target=send_frame, args=(a, message))
    sender.start()
    try:
        assert recv_frame(b) == message
    finally:
        sender.join()


# ----------------------------------------------------------- raw attachments

def recv_with(sock, buffer):
    return recv_frame(sock, buffer), bytes(buffer)


def test_arbitrary_json_keys_are_ordinary_payload(pair):
    # No key is reserved for the framing: the attachment flag lives in
    # the header word, so these all round-trip as plain JSON.
    a, b = pair
    message = {"blob": "x", "attachment": [1], "pairs": [[1, 2, 3, 4]], "count": 1}
    send_frame(a, message)
    buffer = bytearray(b"stale")
    assert recv_with(b, buffer) == (message, b"")


@pytest.mark.parametrize("size", [0, 1, 32, 4096 * 32])
def test_attachment_round_trip(pair, size):
    a, b = pair
    block = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    sender = threading.Thread(
        target=send_frame, args=(a, {"kind": "pairs", "count": 7}, block)
    )
    sender.start()
    try:
        buffer = bytearray()
        assert recv_with(b, buffer) == ({"kind": "pairs", "count": 7}, block)
    finally:
        sender.join(timeout=10)
    assert not sender.is_alive()


def test_attachment_survives_multi_recv_delivery_and_reuses_one_buffer(pair):
    a, b = pair
    blocks = [bytes([i]) * n for i, n in enumerate((300_000, 70_000, 0, 5))]

    def feed():
        for i, block in enumerate(blocks):
            send_frame(a, {"seq": i}, memoryview(block))
        send_frame(a, {"seq": "plain"})

    sender = threading.Thread(target=feed)
    sender.start()
    try:
        buffer = bytearray()
        for i, block in enumerate(blocks):
            assert recv_with(b, buffer) == ({"seq": i}, block)
        # A frame without an attachment empties the caller's buffer.
        assert recv_with(b, buffer) == ({"seq": "plain"}, b"")
    finally:
        sender.join(timeout=10)
    assert not sender.is_alive()


def test_frames_with_and_without_attachment_interleave(pair):
    a, b = pair
    send_frame(a, {"seq": 0})
    send_frame(a, {"seq": 1}, b"abcd")
    send_frame(a, {"seq": 2})
    assert recv_frame(b) == {"seq": 0}
    buffer = bytearray()
    assert recv_with(b, buffer) == ({"seq": 1}, b"abcd")
    assert recv_frame(b) == {"seq": 2}


def test_eof_mid_attachment_is_a_protocol_error(pair):
    a, b = pair
    payload = b'{"kind":"pairs","count":2}'
    a.sendall(
        struct.pack(">I", len(payload) | 1 << 31) + payload
        + struct.pack(">I", 64) + b"only-ten-b"
    )
    a.close()
    with pytest.raises(ProtocolError, match=r"mid-frame \(10/64"):
        recv_frame(b, bytearray())


def test_eof_before_attachment_length_is_a_protocol_error(pair):
    a, b = pair
    payload = b"{}"
    a.sendall(struct.pack(">I", len(payload) | 1 << 31) + payload)
    a.close()
    with pytest.raises(ProtocolError, match="mid-frame"):
        recv_frame(b, bytearray())


def test_oversized_incoming_attachment_is_refused_unread(pair):
    a, b = pair
    payload = b"{}"
    a.sendall(
        struct.pack(">I", len(payload) | 1 << 31) + payload
        + struct.pack(">I", MAX_FRAME_BYTES)  # + 2 JSON bytes: over the cap
    )
    buffer = bytearray()
    with pytest.raises(ProtocolError, match="corrupt"):
        recv_frame(b, buffer)
    assert len(buffer) == 0  # refused on the length alone, nothing buffered


def test_oversized_outgoing_attachment_is_refused(pair):
    a, b = pair
    with pytest.raises(ProtocolError, match="exceeds"):
        send_frame(a, {}, bytes(MAX_FRAME_BYTES))
    # Nothing reached the wire: the stream is still in frame sync.
    send_frame(a, {"ok": True})
    assert recv_frame(b) == {"ok": True}


def test_unsolicited_attachment_is_a_protocol_error(pair):
    # The daemon reads requests with no buffer on offer: a peer cannot
    # make it swallow raw bytes.
    a, b = pair
    send_frame(a, {"op": "ping"}, b"surprise")
    with pytest.raises(ProtocolError, match="unexpected 8-byte attachment"):
        recv_frame(b)


def test_wire_pair_record_is_the_stored_pair_record():
    from repro.service.protocol import PAIR_RECORD
    from repro.storage.relation import PAIR_RECORD_BYTES, _PAIR

    assert PAIR_RECORD.format == _PAIR.format == "<QQQQ"
    assert PAIR_RECORD.size == PAIR_RECORD_BYTES == 32
