"""Crash → resume proofs for the pass-level checkpoint machinery.

The contract under test (docs/architecture.md, "Failure model"): a run
killed after at least one stage barrier leaves a manifest from which
``resume=True`` replays the completed passes and produces output
bit-identical to an uninterrupted run — for all four algorithms.  A
corrupt artifact costs exactly the stages from its producer onward; a
rotten base relation or a wrong identity costs the whole manifest.
"""

from __future__ import annotations

import json

import pytest

from repro.parallel.engine.checkpoint import (
    load_manifest,
    manifest_path,
)
from repro.parallel import RealJoinError
from repro.parallel.faults import (
    ALGORITHM_TASKS,
    FaultPlan,
    flip_payload_bit,
)
from repro.parallel.runner import REAL_ALGORITHMS, run_real_join
from repro.workload.generator import WorkloadSpec, generate_workload

SCALE = 0.02
DISKS = 2


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec.paper_validation(scale=SCALE, seed=17)
    return generate_workload(spec, DISKS)


def crash_last_pass(algorithm: str) -> FaultPlan:
    """A fault plan that kills the final pass's partition-0 task forever."""
    task = ALGORITHM_TASKS[algorithm][-1]
    return FaultPlan.parse(json.dumps({
        "faults": [
            {"kind": "crash", "task": task, "partition": 0, "attempt": a}
            for a in range(4)
        ]
    }))


def run_to_crash(algorithm, workload, root) -> None:
    """Run until the injected crash wins; earlier passes checkpoint."""
    with pytest.raises(RealJoinError):
        run_real_join(
            algorithm,
            workload,
            str(root),
            use_processes=False,
            keep_store=True,
            collect_pairs=False,
            retries=0,
            fault_plan=crash_last_pass(algorithm),
        )


@pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
def test_resume_after_crash_is_bit_identical(algorithm, workload, tmp_path):
    baseline = run_real_join(
        algorithm, workload, str(tmp_path / "baseline"),
        use_processes=False, collect_pairs=False,
    )
    store = tmp_path / "crashed"
    run_to_crash(algorithm, workload, store)
    manifest = load_manifest(store)
    assert manifest is not None and len(manifest["stages"]) >= 1
    resumed = run_real_join(
        algorithm, workload, str(store),
        use_processes=False, keep_store=True, collect_pairs=False,
        resume=True,
    )
    assert resumed.resume["resumed"] is True
    assert resumed.resume["passes_skipped"] >= 1
    assert resumed.pair_count == baseline.pair_count
    assert resumed.checksum == baseline.checksum
    # A completed run retires its manifest: nothing left to resume from.
    assert not manifest_path(store).exists()


def test_corrupt_stage_artifact_reruns_only_its_producer(workload, tmp_path):
    """Sort-merge has three passes; rotting a *late* artifact must keep
    the early passes' checkpoint credit."""
    algorithm = "sort-merge"
    baseline = run_real_join(
        algorithm, workload, str(tmp_path / "baseline"),
        use_processes=False, collect_pairs=False,
    )
    store = tmp_path / "crashed"
    run_to_crash(algorithm, workload, store)
    manifest = load_manifest(store)
    assert len(manifest["stages"]) == 2  # partition + runs checkpointed
    victim = manifest["stages"][-1]["artifacts"][0]["path"]
    flip_payload_bit(store / victim, record=0, bit=5)
    resumed = run_real_join(
        algorithm, workload, str(store),
        use_processes=False, keep_store=True, collect_pairs=False,
        resume=True,
    )
    # The first pass survived; the corrupt pass (and the join after it)
    # re-ran.  Detection is visible in the scrub-failure count.
    assert resumed.resume["resumed"] is True
    assert resumed.resume["passes_skipped"] == 1
    assert resumed.integrity["scrub_failures"] >= 1
    assert resumed.pair_count == baseline.pair_count
    assert resumed.checksum == baseline.checksum


def test_rotten_base_relation_declines_the_whole_manifest(workload, tmp_path):
    algorithm = "grace"
    baseline = run_real_join(
        algorithm, workload, str(tmp_path / "baseline"),
        use_processes=False, collect_pairs=False,
    )
    store = tmp_path / "crashed"
    run_to_crash(algorithm, workload, store)
    flip_payload_bit(store / "disk0" / "R.seg", record=3, bit=1)
    resumed = run_real_join(
        algorithm, workload, str(store),
        use_processes=False, keep_store=True, collect_pairs=False,
        resume=True,
    )
    assert resumed.resume["requested"] is True
    assert resumed.resume["resumed"] is False
    assert "scrub" in (resumed.resume["reason"] or "")
    # The fresh run re-materialized and still answers correctly.
    assert resumed.pair_count == baseline.pair_count
    assert resumed.checksum == baseline.checksum


def test_manifest_for_another_algorithm_is_declined(workload, tmp_path):
    store = tmp_path / "crashed"
    run_to_crash("grace", workload, store)
    baseline = run_real_join(
        "sort-merge", workload, str(tmp_path / "baseline"),
        use_processes=False, collect_pairs=False,
    )
    resumed = run_real_join(
        "sort-merge", workload, str(store),
        use_processes=False, keep_store=True, collect_pairs=False,
        resume=True,
    )
    assert resumed.resume["resumed"] is False
    assert "algorithm" in (resumed.resume["reason"] or "")
    assert resumed.pair_count == baseline.pair_count
    assert resumed.checksum == baseline.checksum


def _split_build(document):
    """What the build that split hot partitions into several tasks wrote:
    a ``rebalance`` knob in the plan, key samples in the sort-run record."""
    document["plan"]["rebalance"] = "auto"
    for record in document["stages"]:
        record["rebalance"] = None
        record["run_keys"] = (
            [[1, [0]]] * DISKS if record["label"] == "sort-runs" else None
        )


@pytest.mark.parametrize(
    "algorithm, edit, knob",
    [
        # What the build before the partitioner cut recorded.
        ("grace", lambda doc: doc["plan"].update(partitioner=None),
         "partitioner"),
        ("grace", lambda doc: doc["plan"].pop("tsize"), "tsize"),
        # What a build that still had the kernel_mode knob recorded.
        ("grace", lambda doc: doc["plan"].update(kernel_mode="vector"),
         "kernel_mode"),
        ("sort-merge", _split_build, "rebalance"),
    ],
    ids=["extra-knob", "missing-knob", "kernel-mode-knob", "rebalance-knob"],
)
def test_manifest_from_another_build_is_declined(
    algorithm, edit, knob, workload, tmp_path
):
    """A manifest whose plan is not exactly this build's JoinPlan knobs
    (the daemon resumes journaled requests across an upgrade) costs a
    fresh run, never a crash."""
    baseline = run_real_join(
        algorithm, workload, str(tmp_path / "baseline"),
        use_processes=False, collect_pairs=False,
    )
    store = tmp_path / "crashed"
    run_to_crash(algorithm, workload, store)
    document = json.loads(manifest_path(store).read_text())
    edit(document)
    manifest_path(store).write_text(json.dumps(document))
    resumed = run_real_join(
        algorithm, workload, str(store),
        use_processes=False, keep_store=True, collect_pairs=False,
        resume=True,
    )
    assert resumed.resume["resumed"] is False
    assert knob in resumed.resume["reason"]
    assert resumed.pair_count == baseline.pair_count
    assert resumed.checksum == baseline.checksum
    assert resumed.pass_checksums == baseline.pass_checksums
