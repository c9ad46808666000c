"""Shared fixtures: small deterministic workloads and calibrated machines."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.calibrate import calibrated_machine_parameters
from repro.model import MachineParameters, MemoryParameters
from repro.sim import SimConfig
from repro.workload import WorkloadSpec, generate_workload


@pytest.fixture(scope="session")
def sim_config() -> SimConfig:
    return SimConfig()


@pytest.fixture(scope="session")
def machine() -> MachineParameters:
    """Model parameters with the paper-shaped default curves."""
    return MachineParameters()


@pytest.fixture(scope="session")
def calibrated_machine(sim_config) -> MachineParameters:
    """Model parameters whose curves were measured on the simulator."""
    return calibrated_machine_parameters(sim_config, accesses_per_band=200)


@pytest.fixture(scope="session")
def small_workload():
    """~2k objects over 4 disks — fast but large enough for real paging."""
    return generate_workload(WorkloadSpec.paper_validation(scale=0.02), disks=4)


@pytest.fixture(scope="session")
def tiny_workload():
    """~512 objects over 2 disks — the quickest correctness substrate."""
    return generate_workload(
        WorkloadSpec(r_objects=512, s_objects=512, seed=11), disks=2
    )


def memory_for(workload, fraction: float, g_bytes: int = 4096) -> MemoryParameters:
    return MemoryParameters.from_fractions(
        workload.relation_parameters(), fraction, g_bytes=g_bytes
    )


@pytest.fixture
def memory_factory():
    return memory_for


def store_tree_problems(root) -> list:
    """Files under a store root that are neither data, the workload
    descriptor nor the checkpoint.

    The store-root invariant: run state travels in the task and
    observations return in the result, so at any instant a store holds
    only ``disk*/*.seg[.tmp]``, ``workload.json`` (which workload its R/S
    hold) and — while a run is live — ``checkpoint.json``.
    """
    root = Path(root)
    problems = []
    for path in root.rglob("*"):
        if path.is_dir():
            continue
        parts = path.relative_to(root).parts
        is_segment = (
            len(parts) == 2
            and parts[0].startswith("disk")
            and parts[1].endswith((".seg", ".seg.tmp"))
        )
        if not is_segment and parts not in (
            ("checkpoint.json",), ("workload.json",)
        ):
            problems.append("/".join(parts))
    return sorted(problems)


def clobber_footer(path) -> None:
    """Rot a closed segment the way one bad sector would: one byte of the
    integrity footer's magic and two payload bytes of record 0."""
    from repro.storage.segment import FOOTER_OFFSET, PAGE_SIZE

    with open(path, "r+b") as file_obj:
        for offset, width in ((FOOTER_OFFSET, 1), (PAGE_SIZE + 8, 2)):
            file_obj.seek(offset)
            old = file_obj.read(width)
            file_obj.seek(offset)
            file_obj.write(bytes(b ^ 0xFF for b in old))
