"""Workload persistence: save and reload exact experiment inputs.

A saved workload pins the *materialized* relations — not just the spec and
seed — so an experiment can be re-run bit-identically on another machine,
another backend (simulator vs. real mmap), or a future version whose RNG
stream might differ.  Files are numpy ``.npz`` archives: three parallel
arrays per relation plus the partition layout and the original spec.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.pointer import PointerMap
from repro.workload.generator import RColumns, Workload, WorkloadSpec

FORMAT_VERSION = 1


class WorkloadIOError(RuntimeError):
    """Raised for unreadable or inconsistent workload files."""


def save_workload(workload: Workload, path: str | os.PathLike) -> None:
    """Write a workload to an ``.npz`` archive."""
    header = {
        "format_version": FORMAT_VERSION,
        "disks": workload.disks,
        "spec": {
            "r_objects": workload.spec.r_objects,
            "s_objects": workload.spec.s_objects,
            "r_bytes": workload.spec.r_bytes,
            "s_bytes": workload.spec.s_bytes,
            "sptr_bytes": workload.spec.sptr_bytes,
            "distribution": workload.spec.distribution,
            "distribution_args": dict(workload.spec.distribution_args),
            "seed": workload.spec.seed,
        },
    }
    r_rid, r_sptr, r_payload = (
        column.astype(np.int64) for column in workload.r_flat()
    )
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        partition_sizes=np.array(
            [len(columns.rid) for columns in workload.r_columns], dtype=np.int64
        ),
        r_rid=r_rid,
        r_sptr=r_sptr,
        r_payload=r_payload,
        s_sid=np.arange(workload.s_objects_total, dtype=np.int64),
        s_value=workload.s_value.astype(np.int64),
        s_payload=workload.s_payload.astype(np.int64),
    )


def load_workload(path: str | os.PathLike) -> Workload:
    """Reload a workload written by :func:`save_workload`."""
    path = Path(path)
    if not path.exists():
        raise WorkloadIOError(f"no workload file at {path}")
    try:
        archive = np.load(path)
    except (OSError, ValueError) as exc:
        raise WorkloadIOError(f"cannot read workload file {path}: {exc}") from exc

    try:
        header = json.loads(bytes(archive["header"]).decode())
    except (KeyError, json.JSONDecodeError) as exc:
        raise WorkloadIOError(f"{path} is not a workload archive") from exc
    if header.get("format_version") != FORMAT_VERSION:
        raise WorkloadIOError(
            f"unsupported workload format {header.get('format_version')!r}"
        )

    spec = WorkloadSpec(**header["spec"])
    disks = int(header["disks"])
    try:
        fields = {
            name: archive[name]
            for name in ("r_rid", "r_sptr", "r_payload",
                         "s_sid", "s_value", "s_payload", "partition_sizes")
        }
    except KeyError as exc:
        raise WorkloadIOError(f"{path} is missing array {exc}") from exc
    _validate(fields, disks, path)

    r_flat = [fields[name].astype(np.uint64)
              for name in ("r_rid", "r_sptr", "r_payload")]
    bounds = np.cumsum(fields["partition_sizes"])[:-1]
    return Workload(
        spec=spec,
        disks=disks,
        r_columns=tuple(
            RColumns(*columns)
            for columns in zip(*(np.split(column, bounds) for column in r_flat))
        ),
        s_value=fields["s_value"].astype(np.uint64),
        s_payload=fields["s_payload"].astype(np.uint64),
        pointer_map=PointerMap(s_objects=len(fields["s_sid"]), partitions=disks),
    )


def _validate(fields: dict, disks: int, path: Path) -> None:
    """Sanity-check shapes and pointer ranges so corrupt files fail loudly."""
    for name, array in fields.items():
        if array.ndim != 1 or array.dtype.kind not in "iu":
            raise WorkloadIOError(f"{path}: {name} is not a 1-d integer array")
        # A negative pointer is reported below, as the out-of-range one it is.
        if name != "r_sptr" and array.size and int(array.min()) < 0:
            raise WorkloadIOError(f"{path}: {name} holds a negative value")
    sizes, rid, sptr = fields["partition_sizes"], fields["r_rid"], fields["r_sptr"]
    if len(sizes) != disks:
        raise WorkloadIOError(
            f"{path}: partition count {len(sizes)} does not match disks {disks}"
        )
    if not len(rid) == len(sptr) == len(fields["r_payload"]) == int(sizes.sum()):
        raise WorkloadIOError(f"{path}: partition sizes do not cover R")
    n_s = len(fields["s_sid"])
    if not n_s == len(fields["s_value"]) == len(fields["s_payload"]) or (
        fields["s_sid"] != np.arange(n_s)
    ).any():
        raise WorkloadIOError(f"{path}: S columns are not indexed by sid")
    bad = np.flatnonzero((sptr < 0) | (sptr >= n_s))
    if bad.size:
        raise WorkloadIOError(
            f"{path}: R object {int(rid[bad[0]])} has out-of-range pointer "
            f"{int(sptr[bad[0]])} (|S| = {n_s})"
        )
