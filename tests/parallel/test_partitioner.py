"""The partitioner layer: registry contracts, scalar/vector agreement,
partition completeness, the learned CDF's skew bound, fit-state
lifecycle, and end-to-end bit-identity for the two new pass plans."""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pointer import PointerMap
from repro.governor.predict import JoinPlan
from repro.joins.reference import expected_checksum
from repro.parallel import run_real_join
from repro.parallel.engine.partition import (
    RADIX_FANOUT,
    HashPartitioner,
    LearnedPartitioner,
    PartitionerError,
    cdf_quantiles,
    equal_depth_cuts,
    partition_scratch_bytes,
    partitioner_class,
    partitioner_names,
    radix_order,
    radix_shift,
    resolve_partitioner,
)
from repro.parallel.engine.stages import PARTITIONER_NAMES, algorithms
from repro.workload import WorkloadSpec, generate_workload
from repro.workload.distributions import zipf_pointers

import random


# A synthetic partition geometry plus located records: hypothesis draws
# the sizes and buckets; the offsets stride the partitions so every
# boundary case (offset 0, last offset, single-record partitions) shows
# up without a storage stack in the loop.
geometries = st.tuples(
    st.lists(st.integers(min_value=1, max_value=5_000), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=2 * RADIX_FANOUT),
    st.integers(min_value=0, max_value=2**31),
)


def located_records(part_sizes, count, seed):
    """Deterministic (target, offset, rid) triples covering the geometry."""
    rng = random.Random(seed)
    records = []
    for rid in range(count):
        target = rng.randrange(len(part_sizes))
        offset = rng.randrange(part_sizes[target])
        records.append((target, offset, rid))
    return records


def build(name, part_sizes, buckets, records):
    cls = partitioner_class(name)
    if not cls.requires_fit:
        return cls(part_sizes, buckets)
    samples = [[] for _ in part_sizes]
    for target, offset, _ in records:
        samples[target].append(offset)
    return cls(part_sizes, buckets, cls.fit(samples, buckets))


class TestRegistry:
    def test_names_match_stage_validation(self):
        # stages.py validates PartitionStage.partitioner against
        # PARTITIONER_NAMES without importing this layer; the registry
        # must agree or a plan could validate but fail to resolve.
        assert partitioner_names() == PARTITIONER_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(PartitionerError):
            partitioner_class("quadratic")

    def test_new_plans_registered(self):
        assert "grace-radix" in algorithms()
        assert "grace-learned" in algorithms()


class TestProperties:
    @pytest.mark.parametrize("name", PARTITIONER_NAMES)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(geometry=geometries)
    def test_complete_and_scalar_equals_vector(self, name, geometry):
        part_sizes, buckets, seed = geometry
        records = located_records(part_sizes, 200, seed)
        part = build(name, part_sizes, buckets, records)

        scalar = [part.bucket_of(t, o, r) for t, o, r in records]
        # Partition completeness: every record lands in a legal bucket —
        # nothing lost past the fan-out, nothing duplicated (one bucket
        # per record by construction of the scalar path).
        assert all(0 <= b < buckets for b in scalar)

        parts = np.asarray([t for t, _, _ in records], dtype=np.int64)
        offs = np.asarray([o for _, o, _ in records], dtype=np.uint64)
        rids = np.asarray([r for _, _, r in records], dtype=np.uint64)
        vector = part.bucket_array(parts, offs, rids)
        assert vector.tolist() == scalar

    @pytest.mark.parametrize("name", PARTITIONER_NAMES)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(geometry=geometries)
    def test_order_is_stable_bucket_sort(self, name, geometry):
        part_sizes, buckets, seed = geometry
        records = located_records(part_sizes, 150, seed)
        part = build(name, part_sizes, buckets, records)
        parts = np.asarray([t for t, _, _ in records], dtype=np.int64)
        offs = np.asarray([o for _, o, _ in records], dtype=np.uint64)
        rids = np.asarray([r for _, _, r in records], dtype=np.uint64)
        bucket = part.bucket_array(parts, offs, rids)
        order = part.order(bucket)
        # A permutation that groups buckets contiguously and preserves
        # arrival order inside each bucket — exactly a stable sort.
        assert sorted(order.tolist()) == list(range(len(records)))
        expected = np.argsort(bucket, kind="stable")
        assert order.tolist() == expected.tolist()

    @settings(max_examples=50, deadline=None)
    @given(
        part_size=st.integers(min_value=1, max_value=1 << 40),
        buckets=st.integers(min_value=1, max_value=4_096),
    )
    def test_radix_shift_minimal_and_monotone(self, part_size, buckets):
        shift = radix_shift(part_size, buckets)
        assert (part_size - 1) >> shift < buckets
        if shift:
            assert (part_size - 1) >> (shift - 1) >= buckets

    def test_radix_order_multi_pass_matches_argsort(self):
        rng = np.random.default_rng(7)
        buckets = 3 * RADIX_FANOUT + 11  # forces two digit passes
        bucket = rng.integers(0, buckets, size=2_000, dtype=np.uint64)
        expected = np.argsort(bucket, kind="stable")
        assert radix_order(bucket, buckets).tolist() == expected.tolist()


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
        # A heavy hitter spanning several quantiles must repeat — the
        # learned partitioner reads the span as the spread width.
        samples = sorted([5] * 80 + list(range(20)))
        bounds = cdf_quantiles(samples, 10)
        assert bounds.count(5) >= 6


class TestLearnedSkew:
    def zipf_offsets(self, theta=1.0, objects=4_096, disks=4, count=16_384):
        rng = random.Random(96)
        pmap = PointerMap(s_objects=objects, partitions=disks)
        sptrs = zipf_pointers(rng, count, objects, theta=theta)
        samples = [[] for _ in range(disks)]
        for target, offset in pmap.locate_many(sptrs):
            samples[target].append(offset)
        sizes = [pmap.partition_size(i) for i in range(disks)]
        return sizes, samples

    def depth_ratio(self, part, samples):
        """Worst per-target max/mean bucket depth under the partitioner."""
        worst = 0.0
        for target, offsets in enumerate(samples):
            if len(offsets) < part.buckets:
                continue
            depths = [0] * part.buckets
            for rid, offset in enumerate(offsets):
                depths[part.bucket_of(target, offset, rid)] += 1
            mean = len(offsets) / part.buckets
            worst = max(worst, max(depths) / mean)
        return worst

    @pytest.mark.parametrize("buckets", (16, 31))
    def test_learned_bounds_zipf_theta_one(self, buckets):
        sizes, samples = self.zipf_offsets(theta=1.0)
        learned = LearnedPartitioner(
            sizes, buckets, LearnedPartitioner.fit(samples, buckets)
        )
        assert self.depth_ratio(learned, samples) <= 1.25

    def test_learned_beats_hash_on_zipf(self):
        sizes, samples = self.zipf_offsets(theta=1.0)
        learned = LearnedPartitioner(
            sizes, 31, LearnedPartitioner.fit(samples, 31)
        )
        hash_part = HashPartitioner(sizes, 31)
        assert self.depth_ratio(learned, samples) < self.depth_ratio(
            hash_part, samples
        )


class TestStateLifecycle:
    def test_stateless_resolve_needs_no_file(self):
        for name in ("hash", "radix"):
            part = resolve_partitioner(name, [100, 100], 8)
            assert part.name == name

    def test_learned_without_state_fails_loudly(self):
        with pytest.raises(PartitionerError):
            resolve_partitioner("learned", [100, 100], 8)

    def test_learned_resolves_from_the_state_it_is_handed(self):
        state = LearnedPartitioner.fit([[1, 2, 3], [4, 5, 6]], 8)
        part = resolve_partitioner("learned", [100, 100], 8, state)
        assert part.name == "learned"
        assert part.state == state

    def test_mismatched_geometry_rejected(self):
        state = LearnedPartitioner.fit([[1], [2]], 16)
        with pytest.raises(PartitionerError):
            resolve_partitioner("learned", [100, 100], 8, state)


class TestGovernorPricing:
    def test_hash_is_the_free_baseline(self):
        assert partition_scratch_bytes(
            "hash", disks=4, buckets=31, batch=512, retained=4_096
        ) == 0.0
        for name in ("radix", "learned"):
            assert partition_scratch_bytes(
                name, disks=4, buckets=31, batch=512, retained=4_096
            ) > 0.0

    def test_ladder_trades_learned_for_hash(self):
        plan = JoinPlan(buckets=31, batch_records=512)
        assert plan.effective_partitioner("grace-learned") == "learned"
        stepped = plan
        seen = set()
        for _ in range(32):
            nxt = stepped.degraded("grace-learned")
            if nxt is None:
                break
            stepped = nxt
            seen.add(stepped.effective_partitioner("grace-learned"))
        assert "hash" in seen


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(
            r_objects=1_021,
            s_objects=1_021,
            distribution="zipf",
            distribution_args={"theta": 1.0},
            seed=96,
        ),
        disks=4,
    )


class TestEndToEnd:
    @pytest.mark.parametrize("algorithm", ("grace-radix", "grace-learned"))
    def test_scalar_vector_and_oracle_agree(
        self, workload, algorithm, tmp_path
    ):
        oracle = expected_checksum(workload)
        results = {}
        for mode in ("scalar", "vector"):
            results[mode] = run_real_join(
                algorithm,
                workload,
                str(tmp_path / mode),
                use_processes=False,
                kernels=mode,
            )
        scalar, vector = results["scalar"], results["vector"]
        assert scalar.checksum == oracle
        assert vector.checksum == scalar.checksum
        assert vector.pair_count == scalar.pair_count
        assert vector.pass_checksums == scalar.pass_checksums
        assert scalar.partitioner == algorithm.split("-", 1)[1]

    def test_partitioner_flag_overrides_plan(self, workload, tmp_path):
        result = run_real_join(
            "grace",
            workload,
            str(tmp_path / "radix"),
            use_processes=False,
            partitioner="radix",
        )
        assert result.checksum == expected_checksum(workload)
        assert result.partitioner == "radix"
