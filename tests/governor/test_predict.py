"""Footprint prediction: the ladder, the fit loop, and model accuracy.

The accuracy contract (the issue's acceptance): for every real algorithm,
at a generous and at a tight memory budget, the worker-observed high-water
mark never exceeds the model's prediction, and the prediction is not
uselessly loose — within ``TOLERANCE``× of what was observed.
"""

import numpy as np
import pytest

from repro.core.pointer import PointerMap
from repro.governor import JoinPlan, fit_plan, predict, predict_footprint
from repro.governor.predict import (
    FIT_MARGIN,
    MAX_BUCKETS,
    MIN_BATCH_RECORDS,
    MIN_IRUN,
    PAGE_SIZE,
    PAIR_RECORD_BYTES,
    RUNG_MIN_GAIN,
    merge_fanin,
    merge_passes,
)
from repro.parallel import REAL_ALGORITHMS, run_real_join
from repro.storage.relation import PAIR_RECORD_BYTES as REAL_PAIR_BYTES
from repro.storage.segment import PAGE_SIZE as REAL_PAGE_SIZE
from repro.workload import WorkloadSpec, generate_workload

R_OBJECTS = 300

#: Predicted may exceed observed by at most this factor (model looseness);
#: observed exceeding predicted at all is a model violation.
TOLERANCE = 3.0

#: (label, total mem budget): ~85% and ~9% of this workload's |R| bytes.
MEMORY_FRACTIONS = [("generous", 1 << 16), ("tight", 32 * 1024)]


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(r_objects=R_OBJECTS, s_objects=R_OBJECTS, seed=7),
        disks=2,
    )


@pytest.fixture(scope="module")
def hot_workload():
    return generate_workload(
        WorkloadSpec(
            r_objects=R_OBJECTS, s_objects=R_OBJECTS, seed=7,
            distribution="partition_hot",
        ),
        disks=2,
    )


def test_mirrored_constants_match_storage():
    """predict.py duplicates these to stay import-cycle-free; pin them."""
    assert PAGE_SIZE == REAL_PAGE_SIZE
    assert PAIR_RECORD_BYTES == REAL_PAIR_BYTES


class TestLadder:
    def test_nested_loops_halves_batch_to_floor(self):
        plan = JoinPlan(batch_records=256)
        plan = plan.degraded("nested-loops")
        assert plan.batch_records == 128
        plan = plan.degraded("nested-loops")
        assert plan.batch_records == MIN_BATCH_RECORDS
        assert plan.degraded("nested-loops") == plan  # floor: no change

    def test_sort_merge_shrinks_batches_before_runs(self):
        """Batches shrink the cutter *and* the merge; the sort heap only
        goes once it is the larger term of the run-cutting stage."""
        plan = JoinPlan(batch_records=128, irun=128)
        plan = plan.degraded("sort-merge")
        assert (plan.irun, plan.batch_records) == (128, MIN_BATCH_RECORDS)
        plan = plan.degraded("sort-merge")
        assert plan.irun == MIN_IRUN
        assert plan.degraded("sort-merge") == plan

    def test_binding_stage_picks_the_knob(self):
        """The same plan descends differently depending on which stage
        sets the high-water mark; several at once share the batch knob."""
        plan = JoinPlan(batch_records=512, irun=4096)
        assert plan.degraded("sort-merge", binding=["sort-runs"]).irun == 2048
        assert plan.degraded(
            "sort-merge", binding=["merge-join"]
        ).batch_records == 256
        # A merge at the batch floor has no knob left: the ladder moves
        # on to the next stage that has one.
        floor = JoinPlan(batch_records=MIN_BATCH_RECORDS)
        assert floor.degraded(
            "sort-merge", binding=["merge-join"]
        ) == JoinPlan(batch_records=MIN_BATCH_RECORDS, irun=floor.irun // 2)
        grace = JoinPlan(batch_records=512, spill_threshold=1024)
        assert grace.degraded("grace", binding=["probe"]).buckets == 32
        assert grace.degraded(
            "grace", binding=["partition"]
        ).spill_threshold == 512
        assert grace.degraded(
            "grace", binding=["partition", "probe"]
        ).batch_records == 256

    def test_every_ladder_ends_at_its_size_floor(self):
        """Repeated degradation walks every knob the plan's stages price
        to its floor, and the floor is a fixed point: no rung trades
        anything but sizes."""
        for algorithm in sorted(REAL_ALGORITHMS):
            plan = JoinPlan()
            for _ in range(64):
                lowered = plan.degraded(algorithm)
                if lowered == plan:
                    break
                plan = lowered
            assert plan.degraded(algorithm) == plan, algorithm
            assert plan.batch_records == MIN_BATCH_RECORDS, algorithm
            if algorithm == "sort-merge":
                assert plan.irun == MIN_IRUN
            if algorithm in ("grace", "hybrid-hash"):
                assert plan.buckets == MAX_BUCKETS, algorithm
                assert plan.spill_threshold == MIN_BATCH_RECORDS, algorithm
            if algorithm == "hybrid-hash":
                assert plan.effective_resident_buckets() == 0

    def test_grace_ladder_order(self):
        plan = JoinPlan(batch_records=128, buckets=16)
        first = plan.degraded("grace")
        assert first.spill_threshold == 4 * 128  # rung 1: chunked spilling
        second = first.degraded("grace")
        assert second.spill_threshold < first.spill_threshold  # rung 2
        current = second
        for _ in range(64):
            lowered = current.degraded("grace")
            if lowered == current:
                break
            current = lowered
        assert current.batch_records == MIN_BATCH_RECORDS
        assert current.buckets == MAX_BUCKETS  # last rung: finer buckets

    def test_disk_pressure_shrinks_batches(self):
        plan = JoinPlan(batch_records=256)
        for algorithm in REAL_ALGORITHMS:
            lowered = plan.degraded(algorithm, resource="disk")
            assert lowered.batch_records == 128


class TestLadderHonesty:
    """Every rung fit_plan takes must pay, on the paper's own geometry."""

    WORKER_BUDGETS = [4 << 20, 1 << 20, 256 << 10, 64 << 10]

    @pytest.fixture(scope="class")
    def paper_workload(self):
        return generate_workload(
            WorkloadSpec.paper_validation(scale=1.0), disks=4
        )

    @pytest.mark.parametrize("budget", WORKER_BUDGETS)
    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_every_rung_lowers_the_high_water_mark(
        self, paper_workload, algorithm, budget
    ):
        mark = predict_footprint(
            algorithm, paper_workload, JoinPlan(), budget
        ).mem_high_water_bytes
        rungs = []
        plan, steps, estimate = fit_plan(
            algorithm, paper_workload, JoinPlan(), budget, rungs
        )
        assert steps == len(rungs)
        for rung in rungs:
            after = rung["predicted_high_water_bytes"]
            assert after <= (1 - RUNG_MIN_GAIN) * mark, (algorithm, rung, mark)
            mark = after
        assert estimate.mem_high_water_bytes <= FIT_MARGIN * budget

    def test_sort_merge_fits_a_1mib_worker_in_few_rungs(self, paper_workload):
        """The bench's 4 MiB / 4 workers: two batch halvings buy a
        fan-in of four and a second merge pass — not the ladder's floor."""
        plan, steps, estimate = fit_plan(
            "sort-merge", paper_workload, JoinPlan(), 1 << 20
        )
        assert steps <= 4
        assert plan.irun == JoinPlan().irun
        runs = estimate.details["merge_runs"]
        fanin = estimate.details["merge_fanin"]
        assert estimate.details["merge_passes"] == merge_passes(
            int(runs), int(fanin)
        ) >= 2

    @pytest.mark.parametrize("total", [4 << 20, 1 << 20])
    def test_urn_model_runs_once_per_bucket_count(
        self, paper_workload, total, monkeypatch
    ):
        """Every rung re-prices the plan, but the urn model's inputs move
        only when a rung doubles ``buckets``: one evaluation each."""
        calls = []
        real = predict.grace_thrashing_estimate

        def counting(**kwargs):
            calls.append(kwargs["buckets"])
            return real(**kwargs)

        monkeypatch.setattr(predict, "grace_thrashing_estimate", counting)
        predict._premature_replacements.cache_clear()
        try:
            rungs = []
            fit_plan("grace", paper_workload, JoinPlan(), total // 4, rungs)
        finally:
            predict._premature_replacements.cache_clear()
        visited = [JoinPlan().buckets] + [
            rung["to"] for rung in rungs if rung["knob"] == "buckets"
        ]
        assert len(rungs) + 1 > len(visited)  # the memo had work to save
        assert calls == visited

    def test_merge_fanin_and_passes(self):
        assert merge_fanin(None, 4096, 128, 128) is None
        # 768 KiB target - one 256 KiB joined batch = four 128 KiB chunks.
        assert merge_fanin(1 << 20, 1024, 128, 128) == 4
        assert merge_fanin(1 << 10, 4096, 128, 128) == 2  # never below two
        assert merge_passes(7, None) == 1
        assert merge_passes(4, 4) == 1
        assert merge_passes(7, 4) == 2
        assert merge_passes(17, 4) == 3
        assert merge_passes(410, 2) == 9


class TestFitPlan:
    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_generous_budget_needs_no_fitting(self, workload, algorithm):
        plan = JoinPlan()
        fitted, steps, estimate = fit_plan(algorithm, workload, plan, 1 << 20)
        assert steps == 0
        assert fitted == plan
        assert estimate.mem_high_water_bytes <= 1 << 20

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_tight_budget_descends_and_fits(self, workload, algorithm):
        # The merge's floor is two open run chunks plus one joined batch,
        # 32 KiB at 64-record batches of 128-byte records.
        budget = (48 if algorithm == "sort-merge" else 16) * 1024
        fitted, steps, estimate = fit_plan(
            algorithm, workload, JoinPlan(), budget
        )
        assert steps >= 1
        assert estimate.mem_high_water_bytes <= budget

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_prediction_scales_down_the_ladder(self, workload, algorithm):
        full = predict_footprint(algorithm, workload, JoinPlan())
        floored, _, low = fit_plan(algorithm, workload, JoinPlan(), 16 * 1024)
        assert low.mem_high_water_bytes <= full.mem_high_water_bytes
        assert floored != JoinPlan()


class TestPredictedVsObserved:
    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    @pytest.mark.parametrize("label,mem_budget", MEMORY_FRACTIONS)
    def test_observed_within_tolerance(
        self, workload, algorithm, label, mem_budget, tmp_path
    ):
        if algorithm == "sort-merge" and label == "tight":
            # The merge's floor is two open run chunks plus one joined
            # batch: 1.5x the tight budget on this workload.
            mem_budget = mem_budget * 3 // 2
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False,
            mem_budget=mem_budget, on_pressure="degrade",
        )
        governor = result.governor
        predicted = governor["predicted"]["mem_high_water_bytes"]
        observed = governor["observed"]["worker_mem_high_water_bytes"]
        assert observed is not None
        # Upper bound: the model must never under-predict the meter.
        assert observed <= predicted, (algorithm, label, observed, predicted)
        # Looseness bound: nor over-predict into uselessness.
        assert predicted <= TOLERANCE * max(observed, PAGE_SIZE), (
            algorithm, label, observed, predicted
        )

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    @pytest.mark.parametrize("label,mem_budget", MEMORY_FRACTIONS)
    def test_observed_within_tolerance_on_partition_hot(
        self, hot_workload, algorithm, label, mem_budget, tmp_path
    ):
        """The same bounds where one partition holds most of R: the model
        prices the measured skew raw, because the hot partition's task
        holds that partition's whole inbound."""
        self.test_observed_within_tolerance(
            hot_workload, algorithm, label, mem_budget, tmp_path
        )

    def test_sort_run_price_holds_the_hottest_partition(self):
        """One task cuts each partition, so with a run heap larger than
        every partition the sort-run price is the hottest partition's
        whole inbound — the measured skew priced raw, not capped."""
        hot = generate_workload(
            WorkloadSpec(
                r_objects=2_000, s_objects=2_000, seed=7,
                distribution="partition_hot",
            ),
            disks=4,
        )
        _rid, sptr, _payload = hot.r_flat()
        parts, _offs = PointerMap(
            s_objects=hot.s_objects_total, partitions=hot.disks
        ).locate_array(sptr)
        hottest = int(np.bincount(parts, minlength=hot.disks).max())
        assert hottest > 1.5 * hot.r_objects_total / hot.disks
        estimate = predict_footprint(
            "sort-merge", hot, JoinPlan(irun=1 << 20), None
        )
        assert estimate.per_pass_mem_bytes["sort-runs"] >= (
            hottest * hot.spec.r_bytes
        )

    @pytest.mark.parametrize("algorithm", sorted(REAL_ALGORITHMS))
    def test_disk_prediction_covers_observed_peak(
        self, workload, algorithm, tmp_path
    ):
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False,
            mem_budget=1 << 20, on_pressure="degrade",
        )
        governor = result.governor
        predicted = governor["predicted"]["disk_bytes"]
        observed = governor["observed"]["disk_peak_bytes"]
        assert 0 < observed <= predicted, (algorithm, observed, predicted)
