"""The pass-pipeline engine: plan registry, dispatch edge cases, recovery.

These tests pin the engine's contracts rather than any one algorithm:
plans are validated declaratively, degenerate geometries (empty
partitions, a single disk) flow through the same executor path, a
stage that faults on every attempt exhausts the retry budget, classifies
the failure, and leaves the store swept clean — and the one carrier of
run state, the :class:`TaskSpec`, is all a worker ever needs: nothing
but data and the checkpoint is ever written under a store root.
"""

import multiprocessing
import multiprocessing.pool
import pickle

import pytest

from repro.governor.predict import JoinPlan
from repro.joins import verify_pairs
from repro.joins.reference import expected_checksum
from repro.parallel import (
    ALGORITHM_TASKS,
    FaultPlan,
    FaultSpec,
    REAL_ALGORITHMS,
    RealJoinError,
    run_real_join,
)
from repro.parallel.engine import task as engine_task
from repro.parallel.engine.stages import (
    ConservationRule,
    PassPlan,
    PassPlanError,
    ScanJoinStage,
    algorithms,
    plan_for,
)
from repro.parallel.engine.task import Shard, TaskSpec
from repro.workload import WorkloadSpec, generate_workload
from tests.conftest import store_tree_problems
from tests.parallel import scalar_oracle


def _stage(label="scan", kernel="nested_loops_pass0", emits="pairs"):
    return ScanJoinStage(label=label, kernel=kernel, emits=emits)


class TestPlanRegistry:
    def test_every_algorithm_has_a_plan(self):
        assert set(algorithms()) == set(REAL_ALGORITHMS)
        for algorithm in REAL_ALGORITHMS:
            plan = plan_for(algorithm)
            assert plan is not None and plan.algorithm == algorithm
            assert plan.stages  # non-empty by construction

    def test_unknown_algorithm_has_no_plan(self):
        assert plan_for("hash-loops") is None

    def test_fault_coordinates_match_plan_tasks(self):
        """faults.ALGORITHM_TASKS is static (that module must import
        without the engine) — this is the consistency pin."""
        assert set(ALGORITHM_TASKS) == set(algorithms())
        for algorithm, tasks in ALGORITHM_TASKS.items():
            assert tasks == plan_for(algorithm).tasks()

    def test_duplicate_registration_rejected(self):
        from repro.parallel.engine.stages import register_plan

        with pytest.raises(PassPlanError, match="already registered"):
            register_plan(PassPlan("nested-loops", (_stage(),)))


class TestPlanValidation:
    def test_empty_stages_rejected(self):
        with pytest.raises(PassPlanError, match="needs stages"):
            PassPlan("x", ())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PassPlanError, match="duplicate stage label"):
            PassPlan("x", (_stage("a"), _stage("a", "nested_loops_pass1")))

    def test_unknown_emits_rejected(self):
        with pytest.raises(PassPlanError, match="emits"):
            _stage(emits="bogus")

    def test_conservation_rule_must_reference_known_stages(self):
        with pytest.raises(PassPlanError, match="unknown stage"):
            PassPlan(
                "x",
                (_stage("a"),),
                conservation=(
                    ConservationRule("pairs", (("ghost", "pairs"),)),
                ),
            )


class TestDegenerateGeometries:
    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_single_partition(self, algorithm, tmp_path):
        """disks=1: no redistribution targets, no pool — every plan must
        degenerate to a local join with the full answer."""
        workload = generate_workload(
            WorkloadSpec(r_objects=120, s_objects=120, seed=11), disks=1
        )
        result = run_real_join(
            algorithm, workload, str(tmp_path / algorithm),
        )
        assert verify_pairs(workload, result.pairs) == 120

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_empty_partition(self, algorithm, tmp_path):
        """More disks than R objects leaves a partition with no records;
        its stages must still run (and conserve zero) for the barrier to
        release."""
        workload = generate_workload(
            WorkloadSpec(r_objects=3, s_objects=40, seed=13), disks=4
        )
        result = run_real_join(
            algorithm, workload, str(tmp_path / algorithm),
            use_processes=False,
        )
        assert verify_pairs(workload, result.pairs) == 3


class TestRetryExhaustion:
    @pytest.fixture()
    def workload(self):
        return generate_workload(
            WorkloadSpec(r_objects=60, s_objects=60, seed=17), disks=2
        )

    def test_stage_faulting_every_attempt_exhausts_budget(
        self, workload, tmp_path
    ):
        """Pool attempts, plus the inline fallback, all crash: the engine
        must give up with a classified RealJoinError naming the stage and
        the attempt budget — and sweep the store."""
        root = tmp_path / "db"
        every_attempt = FaultPlan(
            [
                FaultSpec("crash", "grace_partition", 1, attempt=a)
                for a in range(4)  # 1 + retries pool tries, then inline
            ]
        )
        with pytest.raises(RealJoinError) as info:
            run_real_join(
                "grace", workload, str(root), use_processes=False,
                retries=2, fault_plan=every_attempt,
            )
        message = str(info.value)
        assert "grace partition" in message
        assert "grace_partition" in message
        assert "3 attempt(s)" in message
        assert not root.exists()  # swept and destroyed on failure

    def test_budget_that_survives_one_attempt_recovers(
        self, workload, tmp_path
    ):
        crash_twice = FaultPlan(
            [
                FaultSpec("crash", "grace_partition", 1, attempt=0),
                FaultSpec("crash", "grace_partition", 1, attempt=1),
            ]
        )
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            retries=2, fault_plan=crash_twice,
        )
        assert result.retries_total >= 2
        assert verify_pairs(workload, result.pairs) == 60


class TestTaskSpecCarrier:
    def test_default_spec_is_small(self):
        spec = TaskSpec("/srv/stores/wl-0123456789abcdef", 4, 3, 102_400, 128,
                        kernel="sort_merge_merge_join")
        assert len(pickle.dumps(spec)) < 1024

    def test_round_trips_through_a_spawned_process(self):
        """A spawned interpreter shares nothing with the driver: whatever
        the worker needs must be inside the pickled spec."""
        spec = TaskSpec(
            "/tmp/db", 2, 1, 300, 128,
            kernel="grace_partition",
            plan=JoinPlan(batch_records=64, rebalance="on"),
            shard=Shard(index=1, count=2, lo=10, hi=20),
            worker_mem_budget=1 << 20,
            disk_budget=1 << 30,
            metrics=True,
            attempt=2,
            fault=FaultSpec("hang", "grace_partition", 1, attempt=2),
        )
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            echoed = pool.apply(pickle.loads, (pickle.dumps(spec),))
        assert echoed == spec
        assert echoed.slot == "1s1"
        assert len(pickle.dumps(spec)) < 1024


#: Every way a run used to publish state into the store root.
STORE_ARMS = {
    "ungoverned": dict(collect_metrics=False),
    "budget": dict(
        collect_metrics=False, mem_budget=48 * 1024, disk_budget=1 << 30
    ),
    "metrics": dict(collect_metrics=True),
    "faults": dict(collect_metrics=False),
    # The per-record oracle kernels: they must keep the invariant too.
    "scalar": dict(collect_metrics=False),
}


class TestStoreRootInvariant:
    """Run state travels in the task; observations return in the result;
    the store holds data and the checkpoint."""

    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(
            WorkloadSpec(r_objects=300, s_objects=300, seed=7), disks=2
        )

    @pytest.mark.parametrize("arm", sorted(STORE_ARMS))
    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_store_holds_only_segments_and_checkpoint(
        self, workload, algorithm, arm, tmp_path, monkeypatch
    ):
        root = tmp_path / "db"
        seen_at_entry = []

        def checked(kernel):
            def entry(spec):
                seen_at_entry.append(store_tree_problems(root))
                return kernel(spec)
            return entry

        for task in ALGORITHM_TASKS[algorithm]:
            kernel = (
                scalar_oracle.KERNELS[task] if arm == "scalar"
                else engine_task.resolve_kernel(task)
            )
            monkeypatch.setitem(engine_task._KERNELS, task, checked(kernel))
        options = dict(STORE_ARMS[arm])
        if arm == "faults":
            options["fault_plan"] = FaultPlan.crash_every_pass(algorithm)
        result = run_real_join(
            algorithm, workload, str(root), use_processes=False,
            keep_store=True, **options,
        )
        assert result.checksum == expected_checksum(workload)
        if arm == "budget":
            assert result.degradations_total >= 1
        if arm == "metrics":
            assert all(result.worker_metrics.values())
        assert seen_at_entry and not any(seen_at_entry)
        assert store_tree_problems(root) == []
        # A finished run needs no resume: even the checkpoint is gone.
        assert not (root / "checkpoint.json").exists()


class TestPoolCreatedBeforeTheRun:
    """The daemon's and the bench's shape: workers forked long before the
    run see every mid-run change, because it arrives inside the task."""

    def test_degradation_rounds_reach_preforked_workers(self, tmp_path):
        workload = generate_workload(
            WorkloadSpec(r_objects=300, s_objects=300, seed=7), disks=2
        )

        def pressure(rounds):
            return FaultPlan([
                FaultSpec("mem-pressure", "grace_partition", 0, attempt=a)
                for a in range(rounds)
            ])

        # Start at the ladder's floor so few rungs remain: the spill
        # threshold's three.
        floor = dict(
            batch_records=64, buckets=248, mem_budget=1 << 30,
            collect_metrics=False,
        )
        pool = multiprocessing.Pool(2)
        try:
            midway = run_real_join(
                "grace", workload, str(tmp_path / "a"), pool=pool,
                fault_plan=pressure(2), **floor,
            )
            bottom = run_real_join(
                "grace", workload, str(tmp_path / "b"), pool=pool,
                fault_plan=pressure(3), **floor,
            )
        finally:
            pool.close()
            pool.join()
        oracle = expected_checksum(workload)
        # Two rounds re-planned and re-dispatched to workers that never
        # saw the first plan.
        assert midway.checksum == oracle
        assert midway.governor["runtime_degradations"] == 2
        assert midway.governor["plan"]["spill_threshold"] == 128
        # Three rounds reach the last rung, run by the same workers.
        assert bottom.checksum == oracle
        assert bottom.governor["runtime_degradations"] == 3
        plan = JoinPlan(**bottom.governor["plan"])
        assert plan.spill_threshold == plan.batch_records
        assert plan.degraded("grace", binding=["partition"]) == plan


class TestFaultFiresOncePerCoordinate:
    """The driver counts attempts per (task, partition); a fault pinned
    to attempt 0 fires exactly once however the work is re-dispatched."""

    @pytest.fixture()
    def dispatched(self, monkeypatch):
        """Every TaskSpec that reached a worker, in arrival order."""
        specs = []

        def recording(func, spec):
            specs.append(spec)
            return governed(func, spec)

        governed = engine_task._governed
        monkeypatch.setattr(engine_task, "_governed", recording)
        return specs

    @staticmethod
    def fired(dispatched):
        return [spec.fault.kind for spec in dispatched if spec.fault]

    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(
            WorkloadSpec(r_objects=300, s_objects=300, seed=7), disks=2
        )

    def test_across_retry(self, workload, dispatched, tmp_path):
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            fault_plan=FaultPlan.single("crash", "grace_probe", 0),
        )
        assert result.checksum == expected_checksum(workload)
        assert self.fired(dispatched) == ["crash"]
        assert result.retries_total == 1

    def test_across_inline_fallback(self, workload, dispatched, tmp_path):
        # Threads stand in for pool workers: same dispatch path, and the
        # injected crash raises instead of killing the test process.
        with multiprocessing.pool.ThreadPool(2) as pool:
            result = run_real_join(
                "grace", workload, str(tmp_path / "db"), pool=pool,
                retries=0,
                fault_plan=FaultPlan.single("crash", "grace_probe", 0),
            )
        assert result.checksum == expected_checksum(workload)
        assert self.fired(dispatched) == ["crash"]
        assert result.inline_fallbacks == 1

    def test_across_degradation_round(self, workload, dispatched, tmp_path):
        plan = FaultPlan([
            FaultSpec("crash", "grace_partition", 0, attempt=0),
            FaultSpec("mem-pressure", "grace_partition", 0, attempt=1),
        ])
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            fault_plan=plan,
        )
        assert result.checksum == expected_checksum(workload)
        # Attempt 2 ran the degraded round; a count reset by the round
        # would have crashed it again.
        assert self.fired(dispatched) == ["crash", "mem-pressure"]
        assert result.retries_total == 1
        assert result.degradations_total == 1

    def test_across_shards(self, workload, dispatched, tmp_path):
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            rebalance="on",
            fault_plan=FaultPlan.single("crash", "grace_probe", 0),
        )
        assert result.checksum == expected_checksum(workload)
        assert result.rebalance["probe"]["splits"] >= 1
        assert self.fired(dispatched) == ["crash"]
        assert result.retries_total == 1
        # Only shard 0 counts attempts and carries the fault, so slicing
        # the partition does not shift the plan's attempt coordinates.
        probes = [
            (spec.slot, spec.attempt) for spec in dispatched
            if spec.kernel == "grace_probe" and spec.partition == 0
        ]
        assert probes[:2] == [("0s0", 0), ("0s1", 0)]
        assert ("0s0", 1) in probes and ("0s1", 1) not in probes
