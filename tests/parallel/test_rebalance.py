"""Tests for per-partition rebalancing: shard geometry, executor
integration, governor interplay, and the stats-document report."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.governor.predict import JoinPlan, predict_footprint
from repro.joins.reference import expected_checksum
from repro.obs.export import schema_problems
from repro.obs.registry import MetricsRegistry, activate, deactivate
from repro.parallel import run_real_join
from repro.parallel.engine.rebalance import (
    REBALANCE_MAX_SHARDS,
    RebalanceError,
    _bucket_shards,
    _record_shards,
    _shard_counts,
    cdf_quantiles,
    equal_depth_cuts,
    plan_stage_rebalance,
    validate_rebalance_mode,
)
from repro.parallel.engine.stages import plan_for
from repro.parallel.engine.task import (
    Shard,
    TaskSpec,
    bucket_spill_paths,
    task_slot,
)
from repro.parallel.faults import flip_payload_bit
from repro.parallel.vectorized import grace_partition, grace_probe
from repro.storage.relation import BucketedRFile
from repro.storage.segment import StorageError
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")


def skewed_workload(objects=2_000, seed=13):
    return generate_workload(
        WorkloadSpec(
            r_objects=objects,
            s_objects=objects,
            distribution="partition_hot",
            distribution_args={"hot_fraction": 0.5, "hot_span": 0.25},
            seed=seed,
        ),
        disks=4,
    )


class TestMode:
    def test_valid_modes(self):
        for mode in ("off", "auto", "on"):
            assert validate_rebalance_mode(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(RebalanceError):
            validate_rebalance_mode("maybe")


class TestShardGeometry:
    def test_record_shards_cover_range_exactly(self):
        shards = _record_shards(1_003, 4)
        assert shards[0].lo == 0
        assert shards[-1].hi == 1_003
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo
        assert sum(s.hi - s.lo for s in shards) == 1_003

    def test_record_shards_drop_empty_slices(self):
        shards = _record_shards(2, 4)
        assert len(shards) == 2
        assert all(s.hi > s.lo for s in shards)
        assert [s.count for s in shards] == [2, 2]

    def test_bucket_shards_equal_depth_over_hot_histogram(self):
        # One hot bucket, fifteen dustbins: the hot bucket isolates and
        # the dustbins coalesce.
        histogram = [1000] + [10] * 15
        shards = _bucket_shards(histogram, 4)
        assert shards[0].lo == 0 and shards[-1].hi == 16
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo
        depths = [sum(histogram[s.lo:s.hi]) for s in shards]
        assert max(depths) == 1000  # the hot bucket rides alone

    def test_bucket_shards_refuse_single_bucket(self):
        assert _bucket_shards([500], 4) == []
        assert _bucket_shards([0, 0], 4) == []

    def test_bucket_shards_tail_rounding_pinned(self):
        # Regression: the old greedy walk cut this histogram at
        # (0,2),(2,5),(5,6) — a 300-record final shard after a
        # 300-record middle one starved the tail.  The shared global-CDF
        # walk (equal_depth_cuts) lands the middle cut at bucket 4, so
        # every shard carries 400/300 depths instead of 400/300/100+200.
        histogram = [200, 200, 100, 100, 100, 100]
        shards = _bucket_shards(histogram, 3)
        assert [(s.lo, s.hi) for s in shards] == [(0, 2), (2, 4), (4, 6)]
        depths = [sum(histogram[s.lo:s.hi]) for s in shards]
        assert depths == [400, 200, 200]

    def test_bucket_and_key_sharding_share_one_cdf(self):
        # The bucket walk is exactly equal_depth_cuts: a pinned histogram
        # yields pinned cuts.
        histogram = [1000] + [10] * 15
        cuts = equal_depth_cuts(histogram, 4)
        shards = _bucket_shards(histogram, 4)
        assert cuts == [shards[0].lo] + [s.hi for s in shards]

    def test_shard_counts_auto_proportional(self):
        counts = _shard_counts([600, 100, 100, 200], "auto", 8)
        assert counts[0] >= 2  # 2.4x the mean splits
        assert counts[1] == counts[2] == 1

    def test_shard_counts_on_forces_two(self):
        counts = _shard_counts([100, 100, 100, 100], "on", 8)
        assert all(c == 2 for c in counts)

    def test_shard_counts_capped(self):
        counts = _shard_counts([10_000, 1, 1, 1], "on", REBALANCE_MAX_SHARDS)
        assert max(counts) == REBALANCE_MAX_SHARDS

    def test_empty_partition_never_splits(self):
        assert _shard_counts([0, 300, 300, 300], "on", 8)[0] == 1

    def test_task_slots(self):
        assert task_slot(2, None) == 2
        assert task_slot(2, Shard(index=1, count=3, lo=0, hi=10)) == "2s1"


class TestCdfHelpers:
    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=0, max_value=1_000),
                         min_size=2, max_size=64),
        count=st.integers(min_value=2, max_value=8),
    )
    def test_cuts_cover_and_increase(self, weights, count):
        cuts = equal_depth_cuts(weights, count)
        assert cuts[0] == 0 and cuts[-1] == len(weights)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert len(cuts) <= count + 1

    def test_quantiles_keep_duplicates(self):
        # A heavy hitter spanning several quantiles must repeat; the
        # key-shard planner collapses the repeats into one wide shard.
        samples = sorted([5] * 80 + list(range(20)))
        bounds = cdf_quantiles(samples, 10)
        assert bounds.count(5) >= 6


class TestProbePlanningReadsHeadersOnly:
    """The driver sizes a probe stage between two barriers; the probe
    tasks, not the driver, verify the spilled bytes they map."""

    @pytest.fixture()
    def partitioned(self, tmp_path):
        """A store at the partition barrier: every BS spill published."""
        workload = skewed_workload()
        store = Store(tmp_path / "db", workload.disks)
        store.materialize(workload)
        specs = [
            TaskSpec(
                str(store.root), workload.disks, i,
                workload.spec.s_objects, workload.spec.r_bytes,
            )
            for i in range(workload.disks)
        ]
        assert sum(grace_partition(spec) for spec in specs) == 2_000
        return store, specs

    def test_planning_neither_maps_nor_verifies(self, partitioned):
        store, _specs = partitioned
        probe = plan_for("grace").stage("probe")
        registry = activate(MetricsRegistry())
        try:
            decision = plan_stage_rebalance(store, probe, store.disks, "on", 16)
        finally:
            deactivate()
        assert decision.sharded
        assert not registry.counters_named("storage.integrity.verify")
        assert not registry.counters_named("storage.map.open")
        # ...and it measured exactly what a mapped read would have.
        for i in range(store.disks):
            mapped = 0
            for contributor in range(store.disks):
                for path in bucket_spill_paths(store, i, contributor):
                    with BucketedRFile.open(path) as rel:
                        mapped += len(rel)
            assert decision.sizes[i] == mapped

    def test_spill_rotted_after_the_barrier_is_refused_by_its_probe(
        self, partitioned
    ):
        store, specs = partitioned
        victim = bucket_spill_paths(store, 1, 0)[0]
        flip_payload_bit(victim, record=0, bit=3)
        probe = plan_for("grace").stage("probe")
        assert plan_stage_rebalance(
            store, probe, store.disks, "auto", 16
        ) is not None  # planning reads no payload, so it cannot notice
        with pytest.raises(StorageError, match="checksum mismatch"):
            grace_probe(specs[1])
        assert not list(store.root.glob("disk1/PAIRS*"))
        assert grace_probe(specs[0]).count > 0  # clean partitions still join


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def workload(self):
        return skewed_workload()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_on_matches_off_and_oracle(self, workload, algorithm, tmp_path):
        identities = {}
        rebalance = {}
        for mode in ("off", "on"):
            result = run_real_join(
                algorithm,
                workload,
                str(tmp_path / mode),
                use_processes=False,
                collect_pairs=False,
                rebalance=mode,
            )
            identities[mode] = (result.pair_count, result.checksum)
            rebalance[mode] = result.rebalance
        assert identities["on"] == identities["off"]
        assert identities["off"][1] == expected_checksum(workload)
        assert not rebalance["off"]
        assert sum(r["splits"] for r in rebalance["on"].values()) > 0

    def test_scalar_matches_vector_when_sharded(
        self, workload, tmp_path, scalar_kernels
    ):
        def identity(name):
            result = run_real_join(
                "sort-merge",
                workload,
                str(tmp_path / name),
                use_processes=False,
                collect_pairs=False,
                rebalance="on",
            )
            return result.pair_count, result.checksum

        with scalar_kernels():
            scalar = identity("scalar")
        assert identity("vector") == scalar

    def test_auto_shards_only_the_hot_stage(self, workload, tmp_path):
        result = run_real_join(
            "grace",
            workload,
            str(tmp_path / "auto"),
            use_processes=False,
            collect_pairs=False,
            rebalance="auto",
        )
        # The report is recorded for every capable stage even when the
        # measured ratio stays under the trigger.
        assert result.rebalance
        for report in result.rebalance.values():
            if report["splits"]:
                assert report["post_ratio"] < report["pre_ratio"]

    def test_uniform_auto_declines_to_shard(self, tmp_path):
        workload = generate_workload(
            WorkloadSpec(r_objects=1_200, s_objects=1_200, seed=3), disks=4
        )
        result = run_real_join(
            "sort-merge",
            workload,
            str(tmp_path / "db"),
            use_processes=False,
            collect_pairs=False,
            rebalance="auto",
        )
        assert all(r["splits"] == 0 for r in result.rebalance.values())


class TestStatsDocument:
    def test_rebalance_block_in_per_pass(self, tmp_path):
        workload = skewed_workload(objects=1_200)
        result = run_real_join(
            "grace",
            workload,
            str(tmp_path / "db"),
            use_processes=False,
            collect_pairs=False,
            rebalance="on",
        )
        document = result.stats_document(workload)
        assert schema_problems(document) == []
        blocks = {
            label: entry["rebalance"]
            for label, entry in document["per_pass"].items()
            if "rebalance" in entry
        }
        assert blocks
        for block in blocks.values():
            assert set(block) == {
                "axis", "splits", "tasks", "moved_records",
                "pre_ratio", "post_ratio",
            }
        assert document["meta"]["skew"] == round(workload.measured_skew(), 4)

    def test_shard_slots_in_per_worker(self, tmp_path):
        workload = skewed_workload(objects=1_200)
        result = run_real_join(
            "sort-merge",
            workload,
            str(tmp_path / "db"),
            use_processes=False,
            collect_pairs=False,
            rebalance="on",
        )
        document = result.stats_document(workload)
        slots = [
            slot
            for workers in document["per_worker"].values()
            for slot in workers
        ]
        assert any("s" in str(slot) for slot in slots)


class TestGovernor:
    def test_skew_cap_lowers_sorted_run_footprint(self):
        workload = skewed_workload()
        capped = predict_footprint(
            "sort-merge", workload, JoinPlan(rebalance="auto"), None
        )
        uncapped = predict_footprint(
            "sort-merge", workload, JoinPlan(rebalance="off"), None
        )
        assert workload.measured_skew() > 1.5
        assert capped.mem_high_water_bytes < uncapped.mem_high_water_bytes
        # Sharding moves work, not bytes.
        assert capped.disk_bytes == uncapped.disk_bytes

    def test_uniform_prediction_unchanged_by_rebalance(self):
        workload = generate_workload(
            WorkloadSpec(r_objects=1_200, s_objects=1_200, seed=3), disks=4
        )
        on = predict_footprint(
            "sort-merge", workload, JoinPlan(rebalance="auto"), None
        )
        off = predict_footprint(
            "sort-merge", workload, JoinPlan(rebalance="off"), None
        )
        assert on.mem_high_water_bytes == off.mem_high_water_bytes

    def test_ladder_turns_rebalance_on_first(self):
        plan = JoinPlan(rebalance="off")
        degraded = plan.degraded("grace")
        assert degraded is not None
        assert degraded.rebalance == "auto"
        # Only the knob changed on this rung.
        assert degraded.batch_records == plan.batch_records

    def test_governed_run_degrades_and_stays_correct(self, tmp_path):
        workload = skewed_workload(objects=4_000)
        result = run_real_join(
            "grace",
            workload,
            str(tmp_path / "db"),
            use_processes=False,
            collect_pairs=False,
            mem_budget=400_000,
            on_pressure="degrade",
            max_degradations=16,
            rebalance="off",
        )
        assert result.checksum == expected_checksum(workload)
        assert result.degradations_total >= 1
        assert result.governor["plan"]["rebalance"] == "auto"
