"""Real mmap-backed single-level store (the µDatabase substrate)."""

from repro.storage.layout import LayoutError, RecordLayout
from repro.storage.relation import (
    PAIR_RECORD_BYTES,
    PairsFile,
    RRelationFile,
    SRelationFile,
    SortedRunsFile,
    iter_pairs_file,
    read_pair_block,
)
from repro.storage.segment import (
    MappedSegment,
    StorageError,
    timed_delete_map,
    timed_new_map,
    timed_open_map,
)
from repro.storage.store import Store

__all__ = [
    "LayoutError",
    "MappedSegment",
    "PAIR_RECORD_BYTES",
    "PairsFile",
    "RRelationFile",
    "RecordLayout",
    "SRelationFile",
    "SortedRunsFile",
    "StorageError",
    "Store",
    "iter_pairs_file",
    "read_pair_block",
    "timed_delete_map",
    "timed_new_map",
    "timed_open_map",
]
