"""Segments: the unit of memory mapping in the simulated single-level store.

A segment models one µDatabase-style memory-mapped area: a contiguous range
of blocks on one disk holding fixed-size objects that never straddle page
boundaries ("exact positioning of data").  The simulator keeps the objects
in a plain Python list — what matters for the model is *which pages* an
algorithm touches and in what order, and the list preserves exactly that
via the index-to-page mapping.

A :class:`Region` is a sub-range of a segment with its own append cursor;
the join algorithms use regions for sub-partitions (``RPi,j``), the merge
areas, and the Grace buckets (``BSi,j``).
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.disk import SimDisk
from repro.sim.errors import SegmentError


class SimSegment:
    """A mapped area of ``n_pages`` pages on one disk."""

    def __init__(
        self,
        segment_id: int,
        name: str,
        disk: SimDisk,
        start_block: int,
        capacity_objects: int,
        object_bytes: int,
        page_size: int,
    ) -> None:
        if capacity_objects < 0:
            raise SegmentError("segment capacity cannot be negative")
        if object_bytes <= 0 or object_bytes > page_size:
            raise SegmentError(
                f"object size {object_bytes} must be in (0, page_size]"
            )
        self.segment_id = segment_id
        self.name = name
        self.disk = disk
        self.start_block = start_block
        self.object_bytes = object_bytes
        self.page_size = page_size
        self.objects_per_page = max(1, page_size // object_bytes)
        self.capacity_objects = capacity_objects
        self.n_pages = self._pages_needed(capacity_objects)
        self._data: List[Any] = [None] * capacity_objects
        # Pages with real content on disk; demand-zero pages are absent.
        self.initialized_pages: set[int] = set()

    def _pages_needed(self, objects: int) -> int:
        if objects == 0:
            return 1
        return -(-objects // self.objects_per_page)  # ceil division

    # ------------------------------------------------------------ addressing

    def page_of(self, index: int) -> int:
        """Page number (within the segment) holding object ``index``."""
        self._check_index(index)
        return index // self.objects_per_page

    def block_of_page(self, page: int) -> int:
        """Absolute disk block backing segment page ``page``."""
        if not 0 <= page < self.n_pages:
            raise SegmentError(
                f"page {page} outside segment {self.name!r} ({self.n_pages} pages)"
            )
        return self.start_block + page

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity_objects:
            raise SegmentError(
                f"object index {index} outside segment {self.name!r} "
                f"(capacity {self.capacity_objects})"
            )

    # ------------------------------------------------------------- raw data

    def peek(self, index: int) -> Any:
        """Read object content without any cost accounting (tests only)."""
        self._check_index(index)
        return self._data[index]

    def poke(self, index: int, value: Any) -> None:
        """Write object content without any cost accounting.

        Used by the workload loader to materialize base relations; callers
        must mark the affected pages initialized via
        :meth:`mark_all_initialized` (or the machine helper) afterwards.
        """
        self._check_index(index)
        self._data[index] = value

    def mark_all_initialized(self) -> None:
        """Declare every page as having real on-disk content."""
        self.initialized_pages.update(range(self.n_pages))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimSegment({self.name!r}, disk={self.disk.disk_id}, "
            f"start={self.start_block}, pages={self.n_pages})"
        )


class Region:
    """A sub-range of a segment with its own append cursor.

    The algorithms' temporary areas are sub-partitioned: ``RPi`` holds one
    region per remote partition, ``RSi`` one per contributing process (or
    per Grace bucket).  A region tracks how many objects it holds so passes
    can iterate exactly the written prefix.
    """

    def __init__(self, segment: SimSegment, start: int, capacity: int, label: str = "") -> None:
        if start < 0 or capacity < 0 or start + capacity > segment.capacity_objects:
            raise SegmentError(
                f"region [{start}, {start + capacity}) outside segment "
                f"{segment.name!r} (capacity {segment.capacity_objects})"
            )
        self.segment = segment
        self.start = start
        self.capacity = capacity
        self.label = label
        self.count = 0

    def next_index(self) -> int:
        """Segment index the next append will occupy."""
        if self.count >= self.capacity:
            raise SegmentError(
                f"region {self.label or self.start} of {self.segment.name!r} "
                f"overflow (capacity {self.capacity})"
            )
        return self.start + self.count

    def commit_append(self) -> None:
        self.count += 1

    def indices(self) -> range:
        """Segment indices of the objects appended so far."""
        return range(self.start, self.start + self.count)

    @property
    def is_empty(self) -> bool:
        return self.count == 0


def carve_regions(
    segment: SimSegment, capacities: list[int], labels: list[str] | None = None
) -> list[Region]:
    """Split a segment into consecutive regions of the given capacities.

    Each region is aligned to a page boundary so appends to different
    regions never share a page — mirroring the on-disk sub-partition layout
    where each ``RPi,j`` occupies its own run of blocks.
    """
    labels = labels or [str(i) for i in range(len(capacities))]
    if len(labels) != len(capacities):
        raise SegmentError("labels and capacities must have equal length")
    per_page = segment.objects_per_page
    regions: list[Region] = []
    cursor = 0
    for capacity, label in zip(capacities, labels):
        # Align the start up to a page boundary.
        if cursor % per_page:
            cursor += per_page - (cursor % per_page)
        regions.append(Region(segment, cursor, capacity, label=label))
        cursor += capacity
    if cursor > segment.capacity_objects:
        raise SegmentError(
            f"regions need {cursor} objects but segment {segment.name!r} "
            f"holds {segment.capacity_objects}"
        )
    return regions


def region_capacity_with_alignment(
    capacities: list[int], objects_per_page: int
) -> int:
    """Total segment capacity needed to carve the given aligned regions."""
    cursor = 0
    for capacity in capacities:
        if cursor % objects_per_page:
            cursor += objects_per_page - (cursor % objects_per_page)
        cursor += capacity
    return cursor
