"""Fixed-size record layout for the mmap-backed single-level store.

The paper's µDatabase stores data "exactly positioned": objects are written
at fixed offsets and pointers are plain offsets that need no swizzling when
the segment is mapped back in.  Records here are fixed-size (128 bytes in
the paper's experiments): three little-endian u64 header fields followed by
zero padding, so a record never straddles the 4K page boundary used by the
OS pager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as _np

_HEADER_BYTES = 24  # three u64 header fields


class LayoutError(ValueError):
    """Raised for invalid record layouts."""


@dataclass(frozen=True)
class RecordLayout:
    """Fixed-size record encoding for R and S objects.

    Invariant: bytes 24 to ``record_bytes`` of every stored record are
    zero.  :meth:`pack_columns` zero-fills them, and the only other
    writer — a kernel routing records verbatim (``iter_record_batches``)
    — copies records that already hold it.  That is what makes a verbatim
    move byte-identical to decoding the three fields and re-packing them.
    """

    record_bytes: int = 128

    def __post_init__(self) -> None:
        if self.record_bytes < _HEADER_BYTES:
            raise LayoutError(
                f"record_bytes must be at least {_HEADER_BYTES} "
                f"(got {self.record_bytes})"
            )
        # Structured dtype spanning the whole record: the three u64 header
        # fields by name, itemsize padded to record_bytes — so a zero-copy
        # ``np.frombuffer`` view over a mapped batch strides record by
        # record, and ``np.zeros`` of it reproduces the zero padding
        # bit-for-bit.
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

    # ------------------------------------------------------------- columns
    #
    # Records decoded to three contiguous u64 column arrays (header fields
    # only — 24 of the record's bytes; the padding never leaves the
    # mapping) and encoded back from columns via one zero-filled
    # structured array.

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

        ``np.zeros`` of the structured dtype zero-fills the padding.
        Returned as a byte view over the scratch array (the view keeps it
        alive) so the append path writes it without another copy.
        """
        out = _np.zeros(len(a), dtype=self.np_dtype)
        out["f0"] = a
        out["f1"] = b
        out["f2"] = c
        return memoryview(out).cast("B")
