"""Deterministic fault injection for the real-mmap backend.

The paper's runs assume every Rproc finishes its pass; production does not
get that luxury.  This module makes every failure mode of a per-partition
worker *reproducible*:

* a :class:`FaultSpec` names one fault of a :data:`FAULT_KINDS` kind,
  pinned to a ``(task, partition, attempt)`` coordinate;
* a :class:`FaultPlan` is a set of specs held by the driver, which counts
  every dispatch of a ``(task, partition)`` and attaches the one spec
  matching that attempt to the task it sends — the count lives in the
  driver, so it survives the very process deaths it is instrumenting;
* the task wrapper (:mod:`repro.parallel.engine.task`) fires ``crash``,
  ``hang`` and ``mem-pressure`` at task entry; it arms the storage kinds
  at the storage layer's fault point around the kernel call, where they
  strike the task's own segments (:data:`STORAGE_SITES`, :func:`strike`)
  — or fire at task exit if the kernel never reaches them.

Recovery is safe because passes are idempotent: a worker's outputs become
visible only through the storage layer's atomic tmp-write/rename protocol
(:mod:`repro.storage.segment`), so a retried attempt simply re-creates and
atomically replaces whatever the dead attempt left behind.

In a pool worker (a daemonic process) a crash is a real ``os._exit``;
inline (``use_processes=False``) the same spec raises
:class:`InjectedCrash` instead, so the whole failure matrix is testable
without killing the test runner.  A ``hang`` sleeps and then *exits* —
never completes — so an abandoned task can never race its own retry.
"""

from __future__ import annotations

import errno
import json
import math
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.governor.errors import MemoryExhausted
from repro.storage.segment import (
    PAGE_SIZE,
    MappedSegment,
    _read_header,
    disarm_fault,
)

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

#: The storage kinds and the fault-point site each strikes at: the task's
#: first payload write (a raw ``ENOSPC``), its first publish before the
#: rename (a crash), or right after the rename of its first published
#: segment holding records (rot the file, then crash).
STORAGE_SITES: Dict[str, str] = {
    "disk-full": "write",
    "torn-write": "publish",
    "bit-flip": "published",
    "truncate-payload": "published",
}

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

_EXIT_CRASH = 23
_EXIT_HANG = 24


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
        if not (math.isfinite(self.hang_s) and self.hang_s > 0):
            # time.sleep refuses these, turning the hang into a failure.
            raise FaultPlanError(
                f"hang_s must be a finite number of seconds above 0 in {self}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

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
        point = (task, partition, attempt)
        for spec in self.faults:
            if (spec.task, spec.partition, spec.attempt) == point:
                return spec
        return None

    def check(self, algorithm: str, disks: int) -> None:
        """Refuse a spec ``algorithm`` on ``disks`` disks never reaches:
        it would run clean and inject nothing."""
        for spec in self.faults:
            if (
                spec.task not in ALGORITHM_TASKS[algorithm]
                or spec.partition >= disks
            ):
                raise FaultPlanError(
                    f"{algorithm} on {disks} disks never runs {spec.task} "
                    f"partition {spec.partition}"
                )

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

def flip_payload_bit(
    path: str | os.PathLike, record: int = 0, bit: int = 0
) -> None:
    """Flip one payload bit of a published segment, in place.

    Header and checksum footer stay exactly as the writer left them —
    this is *silent* corruption, invisible to the torn-header checks and
    catchable only by the payload CRC.  The chaos harness's offline
    corruption primitive; also what the ``bit-flip`` fault kind fires.
    """
    header = _read_header(path)
    if not header.count:
        raise FaultPlanError(f"{path} has no published records to corrupt")
    offset = PAGE_SIZE + (record % header.count) * header.record_bytes
    with open(path, "r+b") as file_obj:
        fd = file_obj.fileno()
        byte = os.pread(fd, 1, offset)[0] ^ (1 << (bit % 8))
        os.pwrite(fd, bytes([byte]), offset)


def truncate_payload(path: str | os.PathLike) -> None:
    """Cut a published segment's data area short, in place.

    Models a filesystem losing tail blocks after the atomic publish (the
    rename protocol cannot help — the file *was* complete once).  The
    shortened file fails the storage layer's declared-size check on the
    next ``open``/``record_count``/scrub.
    """
    header = _read_header(path)
    os.truncate(path, PAGE_SIZE + header.capacity * header.record_bytes // 2)


def fire_fault(
    spec: FaultSpec, segment: Optional[MappedSegment] = None
) -> None:
    """Fire ``spec`` now (never returns normally).

    ``crash``, ``hang`` and ``mem-pressure`` fire at task entry; a storage
    kind fires from :func:`strike`, naming the ``segment`` it struck, or at
    task exit when the kernel never reached its site.
    """
    where = f"{spec.task} partition {spec.partition}"
    in_pool = multiprocessing.current_process().daemon
    if spec.kind == "disk-full":
        # A raw OSError, exactly as pwrite raises it: the kernel's abort
        # path and the worker boundary's classification must handle it.
        raise OSError(
            errno.ENOSPC, f"injected disk-full in {where}",
            None if segment is None else str(segment.path),
        )
    if spec.kind == "mem-pressure":
        raise InjectedMemPressure(
            f"injected memory pressure in {where}",
            requested=1 << 20,
            limit=1 << 20,
            used=1 << 20,
        )
    if spec.kind == "hang":
        if in_pool:
            # Sleep, then die without completing: an abandoned task must
            # never wake up and race the retry that replaced it.
            time.sleep(spec.hang_s)
            os._exit(_EXIT_HANG)
        raise InjectedHang(f"injected hang in {where}")
    # crash, and the crash that ends torn-write, bit-flip, truncate-payload
    if in_pool:
        os._exit(_EXIT_CRASH)
    raise InjectedCrash(f"injected {spec.kind} in {where}")


def strike(spec: FaultSpec, site: str, segment: MappedSegment) -> None:
    """The storage fault point's callback for an armed storage ``spec``.

    Strikes once, at the first ``site`` matching its kind (a rot needs a
    segment holding records to rot): disarms the point, rots the
    published file for ``bit-flip`` / ``truncate-payload``, and fires.
    """
    if site != STORAGE_SITES[spec.kind] or (
        site == "published" and not len(segment)
    ):
        return
    disarm_fault()
    if spec.kind == "bit-flip":
        flip_payload_bit(segment.path)
    elif spec.kind == "truncate-payload":
        truncate_payload(segment.path)
    fire_fault(spec, segment)

