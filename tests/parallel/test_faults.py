"""Fault injection and crash recovery for the real-mmap backend.

The acceptance matrix of the recovery layer: for every algorithm x pass,
inject every fault kind, and require the recovered run to be
bit-identical to a fault-free run — same pair count, same checksum, same
per-pass record counts — while still verifying against the workload's
ground-truth oracle.  The storage kinds strike the task's own segments,
which the kernel-level tests inspect.  Plus the failure-budget contract:
when retries are exhausted the run must raise and leave nothing but
published data behind.
"""

import errno
import gc
import itertools
import json
import os

import pytest

from repro.governor.errors import DiskExhausted
from repro.joins import verify_pairs
from repro.obs.export import schema_problems
from repro.parallel import RealJoinError, run_real_join
from repro.parallel.engine.task import TaskSpec, register_kernel, run_task
from repro.parallel.faults import (
    ALGORITHM_TASKS,
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedCrash,
)
from repro.storage.segment import (
    PAGE_SIZE,
    MappedSegment,
    StorageError,
    _read_header,
    scrub_segment,
    tmp_segment_path,
)
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload
from tests.conftest import store_tree_problems

R_OBJECTS = 300

# (algorithm, task) coordinates: every pass of every algorithm.
ALL_TASKS = [
    (algorithm, task)
    for algorithm, tasks in sorted(ALGORITHM_TASKS.items())
    for task in tasks
]


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(r_objects=R_OBJECTS, s_objects=R_OBJECTS, seed=7),
        disks=2,
    )


@pytest.fixture(scope="module")
def baselines(workload, tmp_path_factory):
    """Fault-free reference results, one per algorithm."""
    root = tmp_path_factory.mktemp("baseline")
    results = {}
    for algorithm in sorted(ALGORITHM_TASKS):
        result = run_real_join(
            algorithm, workload, str(root / algorithm), use_processes=False
        )
        assert verify_pairs(workload, result.pairs) == R_OBJECTS
        results[algorithm] = result
    return results


def assert_no_run_artifacts(root):
    """Nothing run-scoped may outlive a join — success or failure."""
    assert store_tree_problems(root) == []
    leftovers = list(root.rglob("*.seg.tmp"))
    assert leftovers == [], f"unpublished segments leaked: {leftovers}"


def assert_matches_baseline(result, baseline, workload):
    assert result.pair_count == baseline.pair_count
    assert result.checksum == baseline.checksum
    assert result.pass_counts == baseline.pass_counts
    assert result.pass_checksums == baseline.pass_checksums
    assert verify_pairs(workload, result.pairs) == R_OBJECTS


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            [
                FaultSpec("crash", "grace_probe", 1),
                FaultSpec(
                    "hang", "sort_merge_merge_join", 0, attempt=2, hang_s=9.0
                ),
            ]
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_parse_inline_json(self):
        plan = FaultPlan.parse(
            '{"faults": [{"kind": "crash", "task": "grace_probe",'
            ' "partition": 0}]}'
        )
        assert plan.spec_for("grace_probe", 0, 0).kind == "crash"
        assert plan.spec_for("grace_probe", 0, 1) is None
        assert plan.spec_for("grace_probe", 1, 0) is None

    def test_parse_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.single("hang", "grace_probe", 0).to_json())
        assert FaultPlan.parse(str(path)).faults[0].kind == "hang"

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec("segfault", "grace_probe", 0)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(FaultPlanError, match="non-negative"):
            FaultSpec("crash", "grace_probe", -1)

    @pytest.mark.parametrize(
        "field, value",
        [("partition", "x"), ("attempt", "second"), ("hang_s", "long")],
    )
    def test_non_numeric_coordinates_rejected(self, field, value):
        spec = {"kind": "hang", "task": "grace_probe", "partition": 0,
                field: value}
        with pytest.raises(FaultPlanError, match="malformed fault spec"):
            FaultPlan.from_json(json.dumps({"faults": [spec]}))

    @pytest.mark.parametrize("hang_s", [-1.0, 0.0, float("nan"),
                                        float("inf")])
    def test_hang_that_cannot_sleep_rejected(self, hang_s):
        """time.sleep refuses these, so the hang would fail at once."""
        with pytest.raises(FaultPlanError, match="hang_s"):
            FaultSpec("hang", "grace_probe", 0, hang_s=hang_s)
        spec = {"kind": "hang", "task": "grace_probe", "partition": 0,
                "hang_s": hang_s}
        with pytest.raises(FaultPlanError, match="hang_s"):
            FaultPlan.from_json(json.dumps({"faults": [spec]}))

    def test_unknown_task_rejected(self):
        """A task no plan runs would parse, then never fire."""
        with pytest.raises(FaultPlanError, match="unknown task 'nope'"):
            FaultPlan.from_json(
                '{"faults": [{"kind": "crash", "task": "nope",'
                ' "partition": 0}]}'
            )
        with pytest.raises(FaultPlanError, match="unknown task"):
            FaultSpec("crash", "grace_prob", 0)

    def test_malformed_json_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{not json")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('{"faults": "nope"}')
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('{"faults": [{"kind": "crash"}]}')

    def test_crash_every_pass_covers_all_tasks(self):
        for algorithm, tasks in ALGORITHM_TASKS.items():
            plan = FaultPlan.crash_every_pass(algorithm)
            assert tuple(s.task for s in plan.faults) == tasks
        with pytest.raises(FaultPlanError, match="unknown algorithm"):
            FaultPlan.crash_every_pass("hash-loops")

    def test_retry_policy_validation(self, workload, tmp_path):
        root = tmp_path / "db"
        for bad in ({"retries": -1}, {"task_timeout": 0},
                    {"task_timeout": float("nan")},
                    # Faults grace on 2 disks never reaches: they would
                    # run clean and inject nothing.
                    {"fault_plan": FaultPlan.single(
                        "crash", "nested_loops_pass0", 0)},
                    {"fault_plan": FaultPlan.single(
                        "crash", "grace_probe", 2)}):
            with pytest.raises(RealJoinError):
                run_real_join(
                    "grace", workload, str(root), use_processes=False, **bad
                )
        assert not root.exists()


class TestInlineRecoveryMatrix:
    """Every algorithm x pass x fault kind, recovered inline."""

    @pytest.mark.parametrize(
        "algorithm,task,kind",
        [
            (algorithm, task, kind)
            for (algorithm, task), kind in itertools.product(
                ALL_TASKS, FAULT_KINDS
            )
        ],
    )
    def test_recovers_bit_identical(
        self, workload, baselines, algorithm, task, kind, tmp_path
    ):
        root = tmp_path / "db"
        result = run_real_join(
            algorithm, workload, str(root), use_processes=False,
            fault_plan=FaultPlan.single(kind, task, partition=0),
        )
        assert_matches_baseline(result, baselines[algorithm], workload)
        if kind in ("disk-full", "mem-pressure"):
            # Resource pressure is deterministic under the same plan, so
            # it is never retried — the runner degrades the plan instead.
            assert result.retries_total == 0
            assert result.degradations_total >= 1
        else:
            assert result.retries_total >= 1
        if kind == "hang":
            assert result.timeouts_total >= 1
        assert not root.exists()

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHM_TASKS))
    def test_crash_in_every_pass_still_recovers(
        self, workload, baselines, algorithm, tmp_path
    ):
        """The issue's headline acceptance: one worker dies in *every*
        pass and the join still completes bit-identically."""
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False,
            fault_plan=FaultPlan.crash_every_pass(algorithm),
        )
        assert_matches_baseline(result, baselines[algorithm], workload)
        assert result.retries_total >= len(ALGORITHM_TASKS[algorithm])

    def test_second_attempt_fault_also_recovered(self, workload, baselines, tmp_path):
        plan = FaultPlan(
            [
                FaultSpec("crash", "grace_probe", 0, attempt=0),
                FaultSpec("torn-write", "grace_probe", 0, attempt=1),
            ]
        )
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            fault_plan=plan,
        )
        assert_matches_baseline(result, baselines["grace"], workload)
        assert result.retries_total >= 2

    def test_no_artifacts_after_faulted_run(self, workload, tmp_path):
        root = tmp_path / "db"
        run_real_join(
            "grace", workload, str(root), use_processes=False,
            keep_store=True,
            fault_plan=FaultPlan.single("crash", "grace_partition", 0),
        )
        assert (root / "disk0" / "R.seg").exists()
        assert_no_run_artifacts(root)


@register_kernel
def publishes_one_empty_segment(spec: TaskSpec) -> str:
    """A kernel that writes no payload and publishes one empty segment."""
    path = spec.open_store().path(0, "EMPTY")
    MappedSegment.create(path, 1, overwrite=True).close()
    return "returned"


class TestStorageFaultsStrikeTheTasksSegments:
    """The storage kinds strike the task's own segments through the
    storage fault point, inline, one task at a time: the damage left
    behind is the file the task itself was writing."""

    @pytest.fixture
    def store(self, workload, tmp_path):
        store = Store(str(tmp_path / "db"), workload.disks)
        store.materialize(workload)
        return store

    @staticmethod
    def run(workload, store, kernel, kind=None, partition=0, task=None):
        """Run one task through the task wrapper, ``kind`` pinned to it."""
        fault = FaultSpec(kind, task or kernel, partition) if kind else None
        return run_task(TaskSpec(
            str(store.root), workload.disks, partition,
            workload.spec.s_objects, workload.spec.r_bytes, kernel=kernel,
            fault=fault,
        ))

    def test_disk_full_is_a_raw_enospc_from_the_first_payload_write(
        self, workload, store
    ):
        with pytest.raises(DiskExhausted) as raised:
            self.run(workload, store, "nested_loops_pass0", "disk-full")
        cause = raised.value.__cause__
        assert type(cause) is OSError and cause.errno == errno.ENOSPC
        # The write that failed was to one of the task's own segments,
        # and the kernel's abort discarded every segment it had created.
        assert cause.filename in {
            str(store.path(0, "PAIRS_p0_0")), str(store.path(0, "RP0_1")),
        }
        assert list(store.root.rglob("*.seg.tmp")) == []
        assert not store.path(0, "RP0_1").exists()
        assert not store.path(0, "PAIRS_p0_0").exists()

    def test_torn_write_leaves_the_first_publish_unrenamed(
        self, workload, store
    ):
        final = store.path(0, "RP0_1")
        tmp = tmp_segment_path(final)
        with pytest.raises(InjectedCrash):
            self.run(workload, store, "nested_loops_pass0", "torn-write")
        assert not final.exists()
        # The orphan is the task's real spill, footer stamped: byte for
        # byte the file a clean attempt publishes.
        header = _read_header(tmp)
        assert header.record_bytes == workload.spec.r_bytes
        assert header.count > 0
        assert scrub_segment(tmp) == "verified"
        torn = tmp.read_bytes()
        self.run(workload, store, "nested_loops_pass0")
        assert final.read_bytes() == torn
        assert not tmp.exists()

    def test_bit_flip_rots_the_published_pairs_output(self, workload, store):
        for partition in range(workload.disks):
            self.run(workload, store, "nested_loops_pass0",
                     partition=partition)
        pairs = store.path(0, "PAIRS_p1_0")
        with pytest.raises(InjectedCrash):
            self.run(workload, store, "nested_loops_pass1", "bit-flip")
        rotten = pairs.read_bytes()
        with pytest.raises(StorageError, match="checksum mismatch"):
            scrub_segment(pairs)
        result = self.run(workload, store, "nested_loops_pass1")[0]
        clean = pairs.read_bytes()
        assert _read_header(pairs).count == result.count > 0
        # One bit of the first pair record differs; nothing else does.
        diffs = [i for i, (a, b) in enumerate(zip(rotten, clean)) if a != b]
        assert len(rotten) == len(clean) and diffs == [PAGE_SIZE]
        assert rotten[PAGE_SIZE] ^ clean[PAGE_SIZE] == 1

    def test_truncate_payload_cuts_the_published_spill(
        self, workload, store
    ):
        spill = store.path(0, "RS0_from0")
        with pytest.raises(InjectedCrash):
            self.run(workload, store, "sort_merge_partition",
                     "truncate-payload")
        with pytest.raises(StorageError, match="torn"):
            scrub_segment(spill)
        cut = spill.stat().st_size
        # The other contributor outputs were discarded, not published.
        assert not store.path(1, "RS1_from0").exists()
        assert list(store.root.rglob("*.seg.tmp")) == []
        self.run(workload, store, "sort_merge_partition")
        header = _read_header(spill)
        assert header.record_bytes == workload.spec.r_bytes
        assert cut == PAGE_SIZE + header.capacity * header.record_bytes // 2

    @pytest.mark.parametrize(
        "kernel", ["nested_loops_pass0", "sort_merge_partition"]
    )
    def test_enospc_at_a_later_create_discards_the_earlier_outputs(
        self, workload, store, kernel, monkeypatch
    ):
        """The second output's create runs out of space: the first
        output's ``.tmp`` is discarded by the kernel's abort, not left
        open and locked until the garbage collector finds it."""
        create = MappedSegment.create.__func__
        created = []

        def second_create_fails(cls, path, *args, **kwargs):
            created.append(path)
            if len(created) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return create(cls, path, *args, **kwargs)

        monkeypatch.setattr(
            MappedSegment, "create", classmethod(second_create_fails)
        )
        gc.disable()  # only the kernel may remove the first output
        try:
            with pytest.raises(DiskExhausted):
                self.run(workload, store, kernel)
            assert len(created) == 2
            assert list(store.root.rglob("*.seg.tmp")) == []
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind, raised", [
        ("disk-full", DiskExhausted), ("bit-flip", InjectedCrash),
    ])
    def test_unreached_fault_fires_at_task_exit(
        self, workload, store, kind, raised
    ):
        """No payload write for disk-full, no published record to rot
        for bit-flip: the fault still fires, when the kernel returns."""
        assert self.run(
            workload, store, "publishes_one_empty_segment"
        ) == ("returned", None)
        with pytest.raises(raised):
            self.run(workload, store, "publishes_one_empty_segment", kind,
                     task="grace_probe")
        assert scrub_segment(store.path(0, "EMPTY")) == "verified"


class TestRetryExhaustion:
    def exhausting_plan(self, task, retries):
        return FaultPlan(
            [
                FaultSpec("crash", task, 0, attempt=attempt)
                for attempt in range(retries + 1)
            ]
        )

    def test_raises_after_budget(self, workload, tmp_path):
        root = tmp_path / "db"
        with pytest.raises(RealJoinError, match="failed"):
            run_real_join(
                "grace", workload, str(root), use_processes=False,
                retries=2, keep_store=True,
                fault_plan=self.exhausting_plan("grace_probe", retries=2),
            )
        # The store survives (keep_store) but nothing run-scoped does.
        assert (root / "disk0" / "R.seg").exists()
        assert_no_run_artifacts(root)

    def test_destroys_store_by_default_on_failure(self, workload, tmp_path):
        root = tmp_path / "db"
        with pytest.raises(RealJoinError):
            run_real_join(
                "grace", workload, str(root), use_processes=False,
                retries=0,
                fault_plan=self.exhausting_plan("grace_partition", retries=0),
            )
        assert not root.exists()

    def test_zero_retries_fails_fast(self, workload, tmp_path):
        with pytest.raises(RealJoinError):
            run_real_join(
                "grace", workload, str(tmp_path / "db"), use_processes=False,
                retries=0,
                fault_plan=FaultPlan.single("crash", "grace_probe", 0),
            )


class TestRecoveryObservability:
    def test_stats_document_reports_recovery(self, workload, tmp_path):
        result = run_real_join(
            "sort-merge", workload, str(tmp_path / "db"), use_processes=False,
            fault_plan=FaultPlan.single("crash", "sort_merge_merge_join", 0),
        )
        document = result.stats_document(workload)
        assert schema_problems(document) == []
        recovery = document["totals"]["recovery"]
        assert recovery["retries"] == result.retries_total >= 1
        retry_counters = {
            key: value
            for key, value in document["totals"]["counters"].items()
            if key.startswith("runner.retries_total")
        }
        assert sum(retry_counters.values()) == result.retries_total

    def test_fault_free_run_reports_zero_recovery(self, workload, tmp_path):
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False
        )
        assert result.retries_total == 0
        assert result.timeouts_total == 0
        assert result.inline_fallbacks == 0
        document = result.stats_document(workload)
        assert document["totals"]["recovery"] == {
            "retries": 0, "timeouts": 0, "inline_fallbacks": 0
        }
        assert not any(
            key.startswith("runner.")
            for key in document["totals"]["counters"]
        )


    def test_a_spec_no_dispatch_reaches_is_reported(self, workload, tmp_path):
        """Attempt 5 of a task that succeeds first time is never
        dispatched: the run is clean, and says which spec did nothing."""
        unreached = FaultSpec("crash", "grace_probe", 0, attempt=5)
        reached = FaultSpec("crash", "grace_probe", 1)
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            fault_plan=FaultPlan([unreached, reached]),
        )
        assert result.retries_total == 1
        assert result.unfired_faults == [unreached]
        document = result.stats_document(workload)
        assert schema_problems(document) == []
        assert document["totals"]["unfired_faults"] == [unreached.to_dict()]

    def test_a_plan_that_all_fires_reports_nothing(
        self, workload, baselines, tmp_path
    ):
        result = run_real_join(
            "sort-merge", workload, str(tmp_path / "db"), use_processes=False,
            fault_plan=FaultPlan.crash_every_pass("sort-merge"),
        )
        assert_matches_baseline(result, baselines["sort-merge"], workload)
        assert result.unfired_faults == []
        assert result.stats_document(workload)["totals"]["unfired_faults"] == []


class TestProcessRecovery:
    """Real process deaths: the pool-mode dispatch path.

    Crash detection in pool mode is by task timeout (a dead worker's
    result simply never arrives), so these runs each pay one timeout
    wait for the killed partition.
    """

    def test_pool_crash_recovered(self, workload, baselines, tmp_path):
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=True,
            task_timeout=3.0, retries=2,
            fault_plan=FaultPlan.single("crash", "grace_probe", 0),
        )
        assert_matches_baseline(result, baselines["grace"], workload)
        assert result.retries_total >= 1
        assert result.timeouts_total >= 1

    def test_pool_hang_recovered(self, workload, baselines, tmp_path):
        plan = FaultPlan.single(
            "hang", "nested_loops_pass0", 0, hang_s=60.0
        )
        result = run_real_join(
            "nested-loops", workload, str(tmp_path / "db"),
            use_processes=True, task_timeout=2.0, retries=2,
            fault_plan=plan,
        )
        assert_matches_baseline(result, baselines["nested-loops"], workload)
        assert result.timeouts_total >= 1

    def test_pool_torn_write_recovered(self, workload, baselines, tmp_path):
        root = tmp_path / "db"
        result = run_real_join(
            "sort-merge", workload, str(root), use_processes=True,
            task_timeout=3.0, retries=2, keep_store=True,
            fault_plan=FaultPlan.single(
                "torn-write", "sort_merge_partition", 0
            ),
        )
        assert_matches_baseline(result, baselines["sort-merge"], workload)
        assert_no_run_artifacts(root)
