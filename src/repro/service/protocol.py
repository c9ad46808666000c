"""Length-prefixed framing for the join-service socket protocol.

One frame = a 4-byte big-endian header word, then that many bytes of
UTF-8 JSON encoding one object, then — only if the header word's top bit
is set — a second 4-byte big-endian length and that many bytes of raw
**attachment**.  The low 31 bits of the header word are the JSON length;
JSON and attachment together may not exceed :data:`MAX_FRAME_BYTES`.
The framing is symmetric — requests and responses use the same wire
shape — and deliberately dumb: no negotiation, no compression, no
partial frames.

A join's pair output is the only high-volume payload and the only user
of attachments: each ``pairs`` frame is a small JSON header (``kind``,
``request_id``, ``count``) whose attachment is ``count`` packed
:data:`PAIR_RECORD` records — the bytes of the daemon's mapped PAIRS
segment, undecoded — in bounded blocks, so neither side ever holds a
whole join result in one buffer and neither runs per-pair Python to move
it.

The full message vocabulary (ops, response kinds, error codes) is
specified in ``docs/serving.md``; this module only knows bytes and JSON.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

#: Refuse frames (JSON plus attachment) larger than this on both sides:
#: a length beyond it means a corrupt stream or a non-protocol peer, not
#: a real message.  (A 4096-pair block is 128 KiB; 64 MiB is two orders
#: of margin.)
MAX_FRAME_BYTES = 64 << 20

#: One joined pair on the wire, exactly as a PAIRS segment stores it:
#: ``rid, sid, r_payload, s_value`` as four little-endian u64.
PAIR_RECORD = struct.Struct("<QQQQ")

_LENGTH = struct.Struct(">I")
#: Header-word bit announcing an attachment.  Free because
#: ``MAX_FRAME_BYTES`` is far below 2**31.
_ATTACHED = 1 << 31


class ProtocolError(RuntimeError):
    """The byte stream violated the framing contract."""


def send_frame(sock: socket.socket, message: dict, attachment=None) -> None:
    """Serialize ``message`` and write one frame.

    ``attachment`` — ``bytes``, ``bytearray`` or a byte ``memoryview``,
    possibly empty — travels raw behind the JSON.  It is neither copied
    nor re-wrapped here (a view of a mapped segment goes from the page
    cache to the socket buffer, and the caller alone decides when that
    view is released).
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    attached = 0 if attachment is None else len(attachment)
    if len(payload) + attached > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload) + attached} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    if attachment is None:
        sock.sendall(_LENGTH.pack(len(payload)) + payload)
        return
    sock.sendall(
        _LENGTH.pack(len(payload) | _ATTACHED)
        + payload
        + _LENGTH.pack(attached)
    )
    if attached:
        sock.sendall(attachment)


def recv_frame(
    sock: socket.socket, attachment: Optional[bytearray] = None
) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF *between* frames.

    A caller that expects attachments passes one reusable ``bytearray``:
    it is resized to exactly the frame's attachment (empty for a frame
    that carries none) and filled in place.  A frame with an attachment
    nobody offered a buffer for is a :class:`ProtocolError`, as are EOF
    mid-frame (a peer that died while sending), a non-object payload,
    and lengths beyond :data:`MAX_FRAME_BYTES`.
    """
    header = bytearray(_LENGTH.size)
    if not _recv_into(sock, header, eof_ok=True):
        return None
    (word,) = _LENGTH.unpack(header)
    length = word & ~_ATTACHED
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame claims {length} bytes "
            f"(limit {MAX_FRAME_BYTES}) — corrupt stream?"
        )
    payload = bytearray(length)
    _recv_into(sock, payload)
    attached = 0
    if word & _ATTACHED:
        _recv_into(sock, header)
        (attached,) = _LENGTH.unpack(header)
        if length + attached > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"incoming frame claims {length} + {attached} attached "
                f"bytes (limit {MAX_FRAME_BYTES}) — corrupt stream?"
            )
        if attachment is None:
            raise ProtocolError(
                f"unexpected {attached}-byte attachment on a frame"
            )
    if attachment is not None:
        # Resize in place: shrinking keeps the allocation, so a stream of
        # equal-sized blocks reuses one buffer.
        del attachment[attached:]
        attachment.extend(bytes(attached - len(attachment)))
        _recv_into(sock, attachment)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload is {type(message).__name__}, expected an object"
        )
    return message


def _recv_into(
    sock: socket.socket, buffer: bytearray, eof_ok: bool = False
) -> bool:
    """Fill ``buffer`` from the socket; ``False`` on immediate EOF (if legal)."""
    n = len(buffer)
    got = 0
    with memoryview(buffer) as view:
        while got < n:
            received = sock.recv_into(view[got:])
            if not received:
                if eof_ok and not got:
                    return False
                raise ProtocolError(
                    f"peer closed the connection mid-frame "
                    f"({got}/{n} bytes received)"
                )
            got += received
    return True
