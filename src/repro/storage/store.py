"""A directory of mapped segments: the workload's on-disk home.

:class:`Store` lays a workload out the way the paper's testbed does — one R
partition and one S partition per (simulated) disk directory — and manages
the temporary areas the join algorithms create.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import List

try:  # pragma: no cover - POSIX-only; without flock every tmp is swept
    import fcntl as _fcntl
except ImportError:  # pragma: no cover
    _fcntl = None

from repro.governor.budget import store_usage_bytes
from repro.storage.relation import RRelationFile, SRelationFile, write_columns
from repro.storage.segment import StorageError, scrub_segment
from repro.workload.generator import Workload


class Store:
    """A root directory holding one subdirectory per disk.

    ``clean_orphans=True`` sweeps ``*.seg.tmp`` files — unpublished
    segments whose writer died before the atomic rename — on open.  Only
    the *driver* of a join should pass it: workers construct a Store per
    task while sibling workers are still writing their own ``.tmp``
    files, so cleaning from a worker would race live writers.
    """

    def __init__(
        self, root: str | Path, disks: int, clean_orphans: bool = False
    ) -> None:
        if disks <= 0:
            raise StorageError("a store needs at least one disk directory")
        self.root = Path(root)
        self.disks = disks
        for i in range(disks):
            self.disk_dir(i).mkdir(parents=True, exist_ok=True)
        if clean_orphans:
            self.cleanup_orphans()

    def disk_dir(self, disk: int) -> Path:
        if not 0 <= disk < self.disks:
            raise StorageError(f"disk {disk} outside [0, {self.disks})")
        return self.root / f"disk{disk}"

    def path(self, disk: int, name: str) -> Path:
        return self.disk_dir(disk) / f"{name}.seg"

    # ------------------------------------------------------------ workload

    def materialize(self, workload: Workload) -> None:
        """Write a workload's R and S partitions into the store."""
        if workload.disks != self.disks:
            raise StorageError(
                f"workload has {workload.disks} partitions, store has "
                f"{self.disks} disks"
            )
        for i in range(self.disks):
            write_columns(
                self.path(i, "R"), *workload.r_columns[i], workload.spec.r_bytes
            )
            write_columns(
                self.path(i, "S"), *workload.s_columns(i), workload.spec.s_bytes
            )

    def open_r(self, disk: int) -> RRelationFile:
        return RRelationFile.open(self.path(disk, "R"))

    def open_s(self, disk: int) -> SRelationFile:
        return SRelationFile.open(self.path(disk, "S"))

    # ---------------------------------------------------------- temporaries

    def temp_paths(self, disk: int) -> List[Path]:
        reserved = {"R.seg", "S.seg"}
        return [
            p for p in sorted(self.disk_dir(disk).glob("*.seg"))
            if p.name not in reserved
        ]

    def cleanup_orphans(self) -> int:
        """Remove unpublished ``*.seg.tmp`` files left by *dead* writers.

        Returns how many were removed.  A tmp file whose creator is still
        alive holds an ``flock`` on it (taken in ``MappedSegment.create``);
        the sweep probes that lock and skips live tmps, so a concurrent
        writer — e.g. a sibling worker mid-pass while the driver cleans up
        another attempt — never loses its unpublished output.  A crashed
        writer's lock died with its fd, so its orphans remain sweepable.
        """
        removed = 0
        for disk in range(self.disks):
            for path in self.disk_dir(disk).glob("*.seg.tmp"):
                if _tmp_writer_alive(path):
                    continue
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def cleanup_temps(self) -> None:
        for disk in range(self.disks):
            for path in self.temp_paths(disk):
                path.unlink()

    def scrub(self, remove: bool = False) -> dict:
        """Fully verify every segment in the store (header + payload CRC).

        Where :meth:`cleanup_orphans` removes files that *obviously*
        never finished, scrub proves the published ones still hold the
        bytes they were closed with.  Returns a report::

            {"scanned": int, "verified": int, "legacy": int,
             "failed": [{"path": str, "problem": str}, ...],
             "removed": [str, ...]}

        ``legacy`` counts structurally-sound segments written before the
        checksum footer existed (nothing to verify against).  With
        ``remove=True`` failing segments are deleted — the warm-cache
        policy: a corrupt cached artifact is strictly worse than a cold
        one, because a recompute is correct and a corrupt serve is not.
        """
        report: dict = {
            "scanned": 0, "verified": 0, "legacy": 0,
            "failed": [], "removed": [],
        }
        for disk in range(self.disks):
            for path in sorted(self.disk_dir(disk).glob("*.seg")):
                report["scanned"] += 1
                try:
                    status = scrub_segment(path)
                except StorageError as error:
                    report["failed"].append(
                        {"path": str(path), "problem": str(error)}
                    )
                    if remove:
                        path.unlink(missing_ok=True)
                        report["removed"].append(str(path))
                    continue
                report[status] += 1
        return report

    def usage_bytes(self) -> int:
        """The store's current disk reservation (summed segment sizes)."""
        return store_usage_bytes(self.root)

    def destroy(self) -> None:
        """Remove the whole store from disk."""
        shutil.rmtree(self.root, ignore_errors=True)


def _tmp_writer_alive(path: Path) -> bool:
    """Whether some live process still holds the create-time flock."""
    if _fcntl is None:
        return False
    try:
        fd = os.open(path, os.O_RDWR)
    except OSError:
        return False  # already gone — nothing to sweep either
    try:
        try:
            _fcntl.flock(fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
        except OSError:
            return True  # EWOULDBLOCK: the writer's lock is still held
        _fcntl.flock(fd, _fcntl.LOCK_UN)
        return False
    finally:
        os.close(fd)
