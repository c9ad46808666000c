"""Graceful degradation end-to-end: pressure never changes the answer.

The acceptance contract: under an injected tight memory budget and under
injected ENOSPC, each algorithm either completes **bit-identically** to an
unconstrained baseline (same pair count, same checksum) via degradation,
or refuses with a classified error — never a raw OSError / MemoryError
escaping ``run_real_join``.
"""

import dataclasses

import pytest

from repro.governor.predict import JoinPlan, fit_plan
from repro.joins import expected_checksum, verify_pairs
from repro.obs.export import schema_problems
from repro.parallel import FaultPlan, run_real_join
from repro.governor import (
    DiskExhausted,
    MemoryExhausted,
    ResourceExhausted,
)
from repro.workload import WorkloadSpec, generate_workload

R_OBJECTS = 300
TIGHT_MEM = 32 * 1024
#: The merge holds one run chunk per open run, at least two, beside the
#: joined batch, so sort-merge's floor sits 1.5x above the others'.
TIGHT_MEM_SORT_MERGE = TIGHT_MEM * 3 // 2

#: Total budgets just under each plan's ladder floor on this workload.
BELOW_FLOOR = {
    "nested-loops": 24 * 1024,
    "sort-merge": 24 * 1024,
    "grace": 8 * 1024,
    "hybrid-hash": 8 * 1024,
}

ALGORITHMS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(r_objects=R_OBJECTS, s_objects=R_OBJECTS, seed=7),
        disks=2,
    )


@pytest.fixture(scope="module")
def baselines(workload, tmp_path_factory):
    root = tmp_path_factory.mktemp("baseline")
    results = {}
    for algorithm in ALGORITHMS:
        results[algorithm] = run_real_join(
            algorithm, workload, str(root / algorithm), use_processes=False
        )
    return results


class TestBitIdenticalUnderPressure:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_tight_budget_degrades_not_fails(
        self, workload, baselines, algorithm, tmp_path
    ):
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False,
            mem_budget=(
                TIGHT_MEM_SORT_MERGE if algorithm == "sort-merge" else TIGHT_MEM
            ),
            on_pressure="degrade",
        )
        baseline = baselines[algorithm]
        assert result.pair_count == baseline.pair_count
        assert result.checksum == baseline.checksum
        if algorithm != "hybrid-hash":
            # Hybrid's deep-degradation rung evicts resident buckets,
            # moving pairs from the partition pass to the probe pass: the
            # per-pass split shifts while the totals stay bit-identical.
            assert result.pass_checksums == baseline.pass_checksums
        assert verify_pairs(workload, result.pairs) == R_OBJECTS
        assert result.degradations_total >= 1
        assert result.governor["admission"] == "degraded"
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_runtime_mem_pressure_recovers(
        self, workload, baselines, algorithm, tmp_path
    ):
        """An un-predicted mid-run MemoryExhausted (injected in the last
        pass) still converges to the baseline via runtime degradation."""
        from repro.parallel.faults import ALGORITHM_TASKS

        last_task = ALGORITHM_TASKS[algorithm][-1]
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False,
            mem_budget=1 << 20, on_pressure="degrade",
            fault_plan=FaultPlan.single("mem-pressure", last_task, 0),
        )
        baseline = baselines[algorithm]
        assert result.pair_count == baseline.pair_count
        assert result.checksum == baseline.checksum
        assert result.governor["runtime_degradations"] >= 1
        assert result.governor["resource_errors"].get("memory", 0) >= 1
        assert result.retries_total == 0  # degraded, never retried

    def test_pool_mode_mem_pressure_pickles_and_degrades(
        self, workload, baselines, tmp_path
    ):
        """The classified error must survive the multiprocessing.Pool
        round trip with its accounting intact and trigger degradation in
        the parent."""
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=True,
            mem_budget=1 << 20, on_pressure="degrade",
            fault_plan=FaultPlan.single("mem-pressure", "grace_probe", 0),
        )
        baseline = baselines["grace"]
        assert result.pair_count == baseline.pair_count
        assert result.checksum == baseline.checksum
        assert result.governor["runtime_degradations"] >= 1

    def test_disk_full_fault_degrades(self, workload, baselines, tmp_path):
        result = run_real_join(
            "sort-merge", workload, str(tmp_path / "db"), use_processes=False,
            fault_plan=FaultPlan.single("disk-full", "sort_merge_partition", 0),
        )
        baseline = baselines["sort-merge"]
        assert result.pair_count == baseline.pair_count
        assert result.checksum == baseline.checksum
        assert result.degradations_total >= 1


class TestSkewedGovernedRun:
    def test_governed_run_degrades_and_stays_correct(self, tmp_path):
        """Half of R points into a quarter of S: the hot partition's task
        sets every pass's footprint, and the ladder shrinks the plan until
        it fits without changing the answer."""
        hot = generate_workload(
            WorkloadSpec(
                r_objects=4_000, s_objects=4_000, seed=13,
                distribution="partition_hot",
                distribution_args={"hot_fraction": 0.5, "hot_span": 0.25},
            ),
            disks=4,
        )
        result = run_real_join(
            "grace", hot, str(tmp_path / "db"), use_processes=False,
            collect_pairs=False, mem_budget=400_000, on_pressure="degrade",
        )
        assert result.checksum == expected_checksum(hot)
        assert result.degradations_total >= 1
        observed = result.governor["observed"]["worker_mem_high_water_bytes"]
        assert observed <= result.governor["budgets"]["worker_mem_budget_bytes"]


class TestPredictedDiskAdmitsTheMerge:
    """Each merge level holds the whole inbound, and the level just merged
    is deleted only once the next is published, so two levels sit on disk
    together: ``predict_footprint``'s level term is the real peak."""

    @pytest.mark.parametrize(
        "budget", [1 << 20, 256 << 10], ids=["1MiB", "256KiB"]
    )
    @pytest.mark.parametrize("distribution", ["uniform", "partition_hot"])
    def test_predicted_disk_bytes_suffice(
        self, distribution, budget, tmp_path
    ):
        paper = generate_workload(
            dataclasses.replace(
                WorkloadSpec.paper_validation(scale=0.25, seed=11),
                distribution=distribution,
            ),
            disks=4,
        )
        _plan, _steps, predicted = fit_plan(
            "sort-merge", paper, JoinPlan(), budget // paper.disks
        )
        assert predicted.details["merge_passes"] >= 2
        result = run_real_join(
            "sort-merge", paper, str(tmp_path / "db"), use_processes=False,
            collect_pairs=False, mem_budget=budget,
            disk_budget=int(predicted.disk_bytes), on_pressure="degrade",
        )
        assert result.governor["resource_errors"].get("disk", 0) == 0
        assert result.degradations_total == result.governor[
            "admission_degradations"
        ]
        unbudgeted = run_real_join(
            "sort-merge", paper, str(tmp_path / "plain"),
            use_processes=False, collect_pairs=False,
        )
        assert result.pair_count == unbudgeted.pair_count
        assert result.checksum == unbudgeted.checksum
        assert result.pass_checksums == unbudgeted.pass_checksums


class TestClassifiedRefusals:
    def test_fail_mode_raises_memory_exhausted(self, workload, tmp_path):
        with pytest.raises(MemoryExhausted) as info:
            run_real_join(
                "grace", workload, str(tmp_path / "db"), use_processes=False,
                mem_budget=8 * 1024, on_pressure="fail",
            )
        error = info.value
        assert error.resource == "memory"
        assert error.limit == 4 * 1024  # per worker: 8K across 2 disks
        assert not (tmp_path / "db").exists()

    def test_queue_mode_also_rejects_predicted_overage(self, workload, tmp_path):
        with pytest.raises(MemoryExhausted):
            run_real_join(
                "grace", workload, str(tmp_path / "db"), use_processes=False,
                mem_budget=8 * 1024, on_pressure="queue",
            )

    def test_disk_budget_rejects_at_admission(self, workload, tmp_path):
        with pytest.raises(DiskExhausted) as info:
            run_real_join(
                "grace", workload, str(tmp_path / "db"), use_processes=False,
                disk_budget=4096, on_pressure="degrade",
            )
        assert info.value.resource == "disk"
        assert info.value.requested > 4096

    def test_runtime_pressure_in_fail_mode_raises_classified(
        self, workload, tmp_path
    ):
        """A mid-run injected ENOSPC under fail mode surfaces as the
        classified hierarchy, never as a raw OSError."""
        with pytest.raises(ResourceExhausted) as info:
            run_real_join(
                "grace", workload, str(tmp_path / "db"), use_processes=False,
                on_pressure="fail",
                fault_plan=FaultPlan.single("disk-full", "grace_partition", 0),
            )
        assert info.value.resource == "disk"
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_below_the_floor_refuses_with_memory_exhausted(
        self, workload, algorithm, tmp_path
    ):
        """Once the ladder is spent, the meter's refusal leaves the run
        classified — never as an unclassified ``RealJoinError``, and
        never masked by a kernel's cleanup failing on the way out."""
        with pytest.raises(MemoryExhausted):
            run_real_join(
                algorithm, workload, str(tmp_path / "db"),
                use_processes=False, mem_budget=BELOW_FLOOR[algorithm],
                on_pressure="degrade",
            )
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize(
        "bad", [{"retries": -1}, {"task_timeout": 0}], ids=["retries", "timeout"]
    )
    def test_invalid_retry_settings_hold_no_slot(self, workload, bad, tmp_path):
        """Refused with the other argument checks, before admission: the
        shared governor's one slot stays free for the next join."""
        from repro.governor import ResourceGovernor
        from repro.parallel import RealJoinError

        governor = ResourceGovernor(max_concurrent=1, queue_limit=0)
        with pytest.raises(RealJoinError):
            run_real_join(
                "grace", workload, str(tmp_path / "bad"), use_processes=False,
                governor=governor, **bad,
            )
        assert governor.snapshot()["running"] == 0
        assert not (tmp_path / "bad").exists()
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            collect_pairs=False, governor=governor, on_pressure="fail",
        )
        assert result.governor["admission"] == "admitted"

    def test_invalid_on_pressure_rejected(self, workload, tmp_path):
        from repro.parallel import RealJoinError

        with pytest.raises(RealJoinError, match="on_pressure"):
            run_real_join(
                "grace", workload, str(tmp_path / "db"),
                on_pressure="panic",
            )


class TestGovernorDocument:
    def test_stats_document_carries_governor_and_validates(
        self, workload, tmp_path
    ):
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            mem_budget=TIGHT_MEM, on_pressure="degrade",
        )
        document = result.stats_document(workload)
        assert schema_problems(document) == []
        governor = document["totals"]["governor"]
        assert governor["degradations_total"] == result.degradations_total
        assert governor["budgets"]["mem_budget_bytes"] == TIGHT_MEM
        assert governor["plan"]["batch_records"] >= 1
        counters = document["totals"]["counters"]
        assert any(
            key.startswith("runner.degradations_total")
            or governor["admission_degradations"] > 0
            for key in list(counters) + ["sentinel"]
        )

    def test_rungs_list_every_degradation_and_validate(
        self, workload, tmp_path
    ):
        result = run_real_join(
            "sort-merge", workload, str(tmp_path / "db"), use_processes=False,
            mem_budget=2 * TIGHT_MEM, on_pressure="degrade",
            fault_plan=FaultPlan.single(
                "mem-pressure", "sort_merge_merge_join", 0
            ),
        )
        document = result.stats_document(workload)
        assert schema_problems(document) == []
        governor = document["totals"]["governor"]
        assert governor["runtime_degradations"] == 1
        assert governor["admission_degradations"] >= 1
        rungs = governor["rungs"]
        assert len(rungs) == governor["degradations_total"]
        marks = [rung["predicted_high_water_bytes"] for rung in rungs]
        assert marks == sorted(marks, reverse=True)
        assert marks[-1] == governor["predicted"]["mem_high_water_bytes"]
        del rungs[0]["knob"]
        assert any("rungs" in problem for problem in schema_problems(document))

    def test_ungoverned_document_has_no_governor(self, workload, tmp_path):
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False
        )
        assert result.governor is None
        document = result.stats_document(workload)
        assert "governor" not in document["totals"]
        assert schema_problems(document) == []
