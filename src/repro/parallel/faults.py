"""Deterministic fault injection for the real-mmap backend.

The paper's runs assume every Rproc finishes its pass; production does not
get that luxury.  This module makes every failure mode of a per-partition
worker *reproducible*:

* a :class:`FaultSpec` names one fault — ``crash`` (the process dies
  mid-task), ``hang`` (the process stops making progress) or ``torn-write``
  (a partially written output segment is left behind at the moment of
  death) — pinned to a ``(task, partition, attempt)`` coordinate;
* a :class:`FaultPlan` is a set of specs held by the driver, which counts
  every dispatch of a ``(task, partition)`` and attaches the one spec
  matching that attempt to the task it sends — the count lives in the
  driver, so it survives the very process deaths it is instrumenting;
* :func:`fire_fault`, called by the task wrapper at task entry, fires the
  spec the task arrived with.

Recovery is safe because passes are idempotent: a worker's outputs become
visible only through the storage layer's atomic tmp-write/rename protocol
(:mod:`repro.storage.segment`), so a retried attempt simply re-creates and
atomically replaces whatever the dead attempt left behind.

In a pool worker (a daemonic process) a ``crash`` is a real ``os._exit``;
inline (``use_processes=False``) the same spec raises
:class:`InjectedCrash` instead, so the whole failure matrix is testable
without killing the test runner.  A ``hang`` sleeps and then *exits* —
never completes — so an abandoned task can never race its own retry.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import errno as _errno

from repro.governor.errors import MemoryExhausted
from repro.storage.segment import HEADER, MAGIC, PAGE_SIZE, MappedSegment

#: ``crash``/``hang``/``torn-write`` exercise the PR-3 recovery layer;
#: ``disk-full`` and ``mem-pressure`` exercise the governor — they raise
#: (never kill) in both pool and inline modes, because resource pressure
#: is a *classified error* the runner degrades on, not a process death.
#: ``bit-flip`` and ``truncate-payload`` exercise the integrity layer: a
#: *structurally valid published* segment whose payload silently rotted,
#: which only the checksum footer (or the file-length check) can catch.
FAULT_KINDS = (
    "crash", "hang", "torn-write", "disk-full", "mem-pressure",
    "bit-flip", "truncate-payload",
)

#: Worker task names per algorithm, in pass order — the coordinates a
#: fault plan pins to, and the basis of "kill one worker in every pass".
#: Kept static (this module must import without the engine) but pinned
#: by a test against each registered pass plan's ``tasks()``.
ALGORITHM_TASKS: Dict[str, tuple] = {
    "nested-loops": ("nested_loops_pass0", "nested_loops_pass1"),
    "sort-merge": (
        "sort_merge_partition",
        "sort_merge_runs",
        "sort_merge_merge_join",
    ),
    "grace": ("grace_partition", "grace_probe"),
    "hybrid-hash": ("hybrid_hash_partition", "grace_probe"),
}

#: Every task some plan runs: the only tasks a fault can be pinned to.
_TASKS = tuple(sorted({t for tasks in ALGORITHM_TASKS.values() for t in tasks}))

# Torn-write victims: the one output file each task is guaranteed to
# re-create on retry, so the garbage left at its *final* path exercises
# the overwrite-on-retry path as well as the tmp-orphan path.  The
# bucketed partition passes only create a BS file for targets that
# records hash to, so they get a tmp-only tear (None) — hybrid's pairs
# sink would be a valid victim but its name depends on the pairs label,
# and the tmp-orphan path is the interesting one there anyway.
_TORN_VICTIMS: Dict[str, Optional[str]] = {
    "nested_loops_pass0": "PAIRS_p0_{i}",
    "nested_loops_pass1": "PAIRS_p1_{i}",
    "sort_merge_partition": "RS{i}_from{i}",
    "sort_merge_runs": "RUN{i}",
    "sort_merge_merge_join": "PAIRS_sm_{i}",
    "grace_partition": None,
    "hybrid_hash_partition": "PAIRS_hh_{i}",
    "grace_probe": "PAIRS_probe_{i}",
}

_EXIT_CRASH = 23
_EXIT_HANG = 24
_EXIT_TORN = 25
_EXIT_CORRUPT = 26


class FaultPlanError(ValueError):
    """Raised for malformed fault plans."""


class InjectedFault(RuntimeError):
    """Base of the exceptions injected faults raise in inline execution."""


class InjectedCrash(InjectedFault):
    """Inline stand-in for a worker process dying mid-task."""


class InjectedHang(InjectedFault):
    """Inline stand-in for a worker that stops making progress.

    The dispatcher treats this exactly like a task timeout, so the
    timeout/retry path is testable without real wall-clock waits.
    """


class InjectedTornWrite(InjectedFault):
    """Inline stand-in for a crash that leaves a torn output segment."""


class InjectedCorruption(InjectedFault):
    """Inline stand-in for a crash that leaves a *silently corrupt*
    published segment — structurally valid header, rotten payload."""


class InjectedDiskFull(InjectedFault, OSError):
    """An ``ENOSPC`` exactly as the OS would raise it mid-``ftruncate``.

    Deliberately a *raw* ``OSError`` — the worker boundary must prove it
    classifies OS-level disk exhaustion into
    :class:`~repro.governor.errors.DiskExhausted`; injecting an already-
    classified error would test nothing.
    """

    def __init__(self, task: str, partition: int) -> None:
        super().__init__(
            f"injected disk-full in {task} partition {partition}"
        )
        # Multiple inheritance leaves OSError's errno unset; classification
        # routes on it, so set it the way a real ENOSPC would carry it.
        self.errno = _errno.ENOSPC
        self._coords = (task, partition)

    def __reduce__(self):
        return (self.__class__, self._coords)


class InjectedMemPressure(InjectedFault, MemoryExhausted):
    """A worker hitting its memory budget at a chosen coordinate.

    Already classified (it *is* a :class:`MemoryExhausted`), mirroring the
    watchdog raising mid-charge — including surviving pool pickling with
    its requested/limit/used fields intact.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, pinned to a (task, partition, attempt) point."""

    kind: str
    task: str
    partition: int
    attempt: int = 0
    #: How long a pool-mode hang sleeps before dying; inline hangs raise
    #: immediately, so only real-process tests pay wall-clock for this.
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; choices: {FAULT_KINDS}"
            )
        if self.task not in _TASKS:
            # A task no plan runs would parse and then never fire.
            raise FaultPlanError(
                f"unknown task {self.task!r}; choices: {_TASKS}"
            )
        if self.partition < 0 or self.attempt < 0:
            raise FaultPlanError(
                f"partition and attempt must be non-negative in {self}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "task": self.task,
            "partition": self.partition,
            "attempt": self.attempt,
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        try:
            kind, task = data["kind"], data["task"]
            partition = int(data["partition"])
            attempt = int(data.get("attempt", 0))
            hang_s = float(data.get("hang_s", 3600.0))
        except (KeyError, TypeError, ValueError) as error:
            raise FaultPlanError(
                f"malformed fault spec {data!r}: {error}"
            ) from None
        return cls(kind, task, partition, attempt, hang_s)


@dataclass
class FaultPlan:
    """A deterministic set of faults for one join run."""

    faults: List[FaultSpec] = field(default_factory=list)

    def spec_for(
        self, task: str, partition: int, attempt: int
    ) -> Optional[FaultSpec]:
        for spec in self.faults:
            if (
                spec.task == task
                and spec.partition == partition
                and spec.attempt == attempt
            ):
                return spec
        return None

    # -------------------------------------------------------- serialization

    def to_json(self) -> str:
        return json.dumps({"faults": [s.to_dict() for s in self.faults]})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}")
        if not isinstance(data, dict) or not isinstance(
            data.get("faults"), list
        ):
            raise FaultPlanError(
                'a fault plan is {"faults": [{kind, task, partition, ...}]}'
            )
        return cls([FaultSpec.from_dict(entry) for entry in data["faults"]])

    @classmethod
    def parse(cls, source: str) -> "FaultPlan":
        """Parse a CLI argument: a JSON file path or an inline JSON string."""
        path = Path(source)
        try:
            exists = path.is_file()
        except OSError:
            exists = False
        return cls.from_json(path.read_text() if exists else source)

    # --------------------------------------------------------- constructors

    @classmethod
    def single(
        cls, kind: str, task: str, partition: int, attempt: int = 0, **kw
    ) -> "FaultPlan":
        return cls([FaultSpec(kind, task, partition, attempt, **kw)])

    @classmethod
    def crash_every_pass(
        cls, algorithm: str, partition: int = 0, attempt: int = 0
    ) -> "FaultPlan":
        """Kill one worker in every pass of ``algorithm`` (acceptance plan)."""
        if algorithm not in ALGORITHM_TASKS:
            raise FaultPlanError(f"unknown algorithm {algorithm!r}")
        return cls(
            [
                FaultSpec("crash", task, partition, attempt)
                for task in ALGORITHM_TASKS[algorithm]
            ]
        )


# ------------------------------------------------------------ worker hooks

def _disk_path(root: str, partition: int, name: str) -> Path:
    # Mirrors Store.path without constructing a Store (no mkdir side effects).
    return Path(root) / f"disk{partition}" / f"{name}.seg"


def _write_torn_segment(path: Path) -> None:
    """A segment whose header claims more records than it can hold — the
    signature of a writer that died between extending the file and
    finishing its data.  ``MappedSegment.open`` must reject it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(HEADER.pack(MAGIC, 128, 4, 977) + b"torn segment")


def _read_payload_header(file_obj, path: Path) -> tuple:
    header = file_obj.read(HEADER.size)
    if len(header) < HEADER.size:
        raise FaultPlanError(f"{path} is not a segment file")
    magic, record_bytes, capacity, count = HEADER.unpack_from(header)
    if magic != MAGIC or count <= 0:
        raise FaultPlanError(f"{path} has no published records to corrupt")
    return record_bytes, capacity, count


def flip_payload_bit(
    path: str | os.PathLike, record: int = 0, bit: int = 0
) -> None:
    """Flip one payload bit of a published segment, in place.

    Header and checksum footer stay exactly as the writer left them —
    this is *silent* corruption, invisible to the torn-header checks and
    catchable only by the payload CRC.  The chaos harness's offline
    corruption primitive; also what the ``bit-flip`` fault kind fires.
    """
    path = Path(path)
    with open(path, "r+b") as file_obj:
        record_bytes, _capacity, count = _read_payload_header(file_obj, path)
        offset = PAGE_SIZE + (record % count) * record_bytes
        file_obj.seek(offset)
        byte = file_obj.read(1)
        file_obj.seek(offset)
        file_obj.write(bytes([byte[0] ^ (1 << (bit % 8))]))


def truncate_payload(path: str | os.PathLike) -> None:
    """Cut a published segment's data area short, in place.

    Models a filesystem losing tail blocks after the atomic publish (the
    rename protocol cannot help — the file *was* complete once).  The
    shortened file fails the storage layer's declared-size check on the
    next ``open``/``record_count``/scrub.
    """
    path = Path(path)
    with open(path, "r+b") as file_obj:
        record_bytes, capacity, _count = _read_payload_header(file_obj, path)
        file_obj.truncate(PAGE_SIZE + capacity * record_bytes // 2)


def _write_corrupt_segment(path: Path, kind: str) -> None:
    """Publish a small *valid* segment at ``path``, then corrupt it the
    way ``kind`` names — exactly the artifact a scrub must catch."""
    path.parent.mkdir(parents=True, exist_ok=True)
    segment = MappedSegment.create(path, 4, 32, overwrite=True)
    try:
        segment.append_batch(bytes(range(128)))
    except BaseException:
        segment.discard()
        raise
    segment.close()
    if kind == "bit-flip":
        flip_payload_bit(path)
    else:
        truncate_payload(path)


def fire_fault(spec: FaultSpec, root: str) -> None:
    """Fire ``spec`` against the store at ``root`` (never returns normally)."""
    task, partition = spec.task, spec.partition
    in_pool = multiprocessing.current_process().daemon
    if spec.kind == "disk-full":
        # Raised (not exited) in both modes: resource pressure is an error
        # the worker boundary classifies and the runner degrades on.  The
        # raw OSError pickles back through the pool like any task failure.
        raise InjectedDiskFull(task, partition)
    if spec.kind == "mem-pressure":
        raise InjectedMemPressure(
            f"injected memory pressure in {task} partition {partition}",
            requested=1 << 20,
            limit=1 << 20,
            used=1 << 20,
        )
    if spec.kind == "crash":
        if in_pool:
            os._exit(_EXIT_CRASH)
        raise InjectedCrash(f"injected crash in {task} partition {partition}")
    if spec.kind == "hang":
        if in_pool:
            # Sleep, then die without completing: an abandoned task must
            # never wake up and race the retry that replaced it.
            time.sleep(spec.hang_s)
            os._exit(_EXIT_HANG)
        raise InjectedHang(f"injected hang in {task} partition {partition}")
    if spec.kind in ("bit-flip", "truncate-payload"):
        # Silent corruption: a *published, structurally valid* victim
        # whose payload rotted after the atomic rename.  The retry must
        # overwrite it — and until it does, any reader must refuse it.
        victim = _TORN_VICTIMS.get(task)
        if victim is not None:
            final = _disk_path(root, partition, victim.format(i=partition))
            _write_corrupt_segment(final, spec.kind)
        else:
            tmp = _disk_path(root, partition, f"BS{partition}_from{partition}")
            _write_torn_segment(tmp.with_name(tmp.name + ".tmp"))
        if in_pool:
            os._exit(_EXIT_CORRUPT)
        raise InjectedCorruption(
            f"injected {spec.kind} in {task} partition {partition}"
        )
    # torn-write: leave partial output where the retry must overwrite it.
    victim = _TORN_VICTIMS.get(task)
    if victim is not None:
        final = _disk_path(root, partition, victim.format(i=partition))
        _write_torn_segment(final)
        _write_torn_segment(final.with_name(final.name + ".tmp"))
    else:
        tmp = _disk_path(root, partition, f"BS{partition}_from{partition}")
        _write_torn_segment(tmp.with_name(tmp.name + ".tmp"))
    if in_pool:
        os._exit(_EXIT_TORN)
    raise InjectedTornWrite(
        f"injected torn write in {task} partition {partition}"
    )
