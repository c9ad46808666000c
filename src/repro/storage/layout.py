"""Fixed-size record layout for the mmap-backed single-level store.

The paper's µDatabase stores data "exactly positioned": objects are written
at fixed offsets and pointers are plain offsets that need no swizzling when
the segment is mapped back in.  Records here are fixed-size (128 bytes in
the paper's experiments): three little-endian u64 header fields followed by
zero padding, so a record never straddles the 4K page boundary used by the
OS pager.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as _np

from repro.core.records import RObject, SObject

_HEADER = struct.Struct("<QQQ")


class LayoutError(ValueError):
    """Raised for invalid record layouts."""


@dataclass(frozen=True)
class RecordLayout:
    """Fixed-size record encoding for R and S objects.

    Invariant: bytes 24 to ``record_bytes`` of every stored record are
    zero.  Every packer here zero-fills them, and the only other writer —
    a kernel routing records verbatim (``iter_record_batches``) — copies
    records that already hold it.  That is what makes a verbatim move
    byte-identical to decoding the three fields and re-packing them.
    """

    record_bytes: int = 128

    def __post_init__(self) -> None:
        if self.record_bytes < _HEADER.size:
            raise LayoutError(
                f"record_bytes must be at least {_HEADER.size} "
                f"(got {self.record_bytes})"
            )
        # One Struct spanning the whole record (header + `x` pad bytes) so
        # iter_unpack/pack_into stride record-by-record over a raw buffer
        # with no per-record slicing, copying, or method dispatch.
        object.__setattr__(
            self,
            "_record",
            struct.Struct(f"<QQQ{self.record_bytes - _HEADER.size}x"),
        )
        # Structured dtype spanning the whole record: the three u64 header
        # fields by name, itemsize padded to record_bytes — so a zero-copy
        # ``np.frombuffer`` view over a mapped batch strides records the
        # same way the Struct does, and ``np.zeros`` of it reproduces the
        # zero padding bit-for-bit.
        object.__setattr__(
            self,
            "_np_dtype",
            _np.dtype(
                {
                    "names": ("f0", "f1", "f2"),
                    "formats": ("<u8", "<u8", "<u8"),
                    "offsets": (0, 8, 16),
                    "itemsize": self.record_bytes,
                }
            ),
        )

    @property
    def header_struct(self) -> struct.Struct:
        """The 3-field header encoding (no padding)."""
        return _HEADER

    @property
    def record_struct(self) -> struct.Struct:
        """The full-record encoding (header plus pad bytes)."""
        return self._record

    @property
    def padding(self) -> bytes:
        return b"\x00" * (self.record_bytes - _HEADER.size)

    # ----------------------------------------------------------- R records

    def pack_r(self, obj: RObject) -> bytes:
        """Encode an R-object; the sptr field is the virtual pointer."""
        return _HEADER.pack(obj.rid, obj.sptr, obj.payload) + self.padding

    def unpack_r(self, data: bytes | memoryview) -> RObject:
        rid, sptr, payload = _HEADER.unpack_from(data)
        return RObject(rid=rid, sptr=sptr, payload=payload)

    # ----------------------------------------------------------- S records

    def pack_s(self, obj: SObject) -> bytes:
        return _HEADER.pack(obj.sid, obj.value, obj.payload) + self.padding

    def unpack_s(self, data: bytes | memoryview) -> SObject:
        sid, value, payload = _HEADER.unpack_from(data)
        return SObject(sid=sid, value=value, payload=payload)

    # ------------------------------------------------------------- batches
    #
    # The batch primitives avoid all per-record overhead of the scalar
    # path: no bytes() copies, no per-record method dispatch, one C-level
    # ``iter_unpack``/``pack_into`` stride over the whole buffer.

    def iter_unpack_r(self, buffer: bytes | memoryview) -> Iterator[RObject]:
        """Decode a contiguous run of R records from a raw buffer."""
        return map(RObject._make, self._record.iter_unpack(buffer))

    def iter_unpack_s(self, buffer: bytes | memoryview) -> Iterator[SObject]:
        """Decode a contiguous run of S records from a raw buffer."""
        return map(SObject._make, self._record.iter_unpack(buffer))

    def unpack_r_batch(self, buffer: bytes | memoryview) -> List[RObject]:
        return list(self.iter_unpack_r(buffer))

    def unpack_s_batch(self, buffer: bytes | memoryview) -> List[SObject]:
        return list(self.iter_unpack_s(buffer))

    def pack_batch(self, objects: Sequence[tuple]) -> bytearray:
        """Encode 3-field records (R or S) into one contiguous buffer."""
        buffer = bytearray(len(objects) * self.record_bytes)
        pack_into = self._record.pack_into
        stride = self.record_bytes
        offset = 0
        for a, b, c in objects:
            pack_into(buffer, offset, a, b, c)
            offset += stride
        return buffer

    # R and S records share the 3×u64 header shape, so one packer serves
    # both; the aliases keep call sites typed.
    pack_r_batch = pack_batch
    pack_s_batch = pack_batch

    # ------------------------------------------------------------- columns
    #
    # The vectorized kernel path: records decoded to three contiguous u64
    # column arrays (header fields only — 24 of the record's bytes; the
    # padding never leaves the mapping) and encoded back from columns via
    # one zero-filled structured array, byte-identical to pack_batch.

    @property
    def np_dtype(self):
        """The numpy structured dtype spanning one full record."""
        return self._np_dtype

    def decode_columns(
        self, buffer: bytes | memoryview
    ) -> Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]:
        """Decode a contiguous run of records into three u64 column copies.

        The columns are compact copies (24/record_bytes of the data), so
        the caller may release the underlying view immediately — nothing
        returned here keeps the mapping's buffer exported.
        """
        arr = _np.frombuffer(buffer, dtype=self.np_dtype)
        # .copy(), not ascontiguousarray: a 0- or 1-element strided field
        # view is already "contiguous", so ascontiguousarray would return
        # the view itself and keep the mapping's buffer exported past the
        # caller's release().
        return (arr["f0"].copy(), arr["f1"].copy(), arr["f2"].copy())

    def pack_columns(self, a, b, c) -> memoryview:
        """Encode three u64 column arrays into contiguous record bytes.

        ``np.zeros`` of the structured dtype zero-fills the padding, so
        the output is byte-identical to :meth:`pack_batch` of the same
        tuples.  Returned as a byte view over the scratch array (the view
        keeps it alive) so the append path writes it without another
        copy.
        """
        out = _np.zeros(len(a), dtype=self.np_dtype)
        out["f0"] = a
        out["f1"] = b
        out["f2"] = c
        return memoryview(out).cast("B")

    def offset_of(self, index: int) -> int:
        """Byte offset of record ``index`` within the data area."""
        if index < 0:
            raise LayoutError(f"record index cannot be negative: {index}")
        return index * self.record_bytes
