"""Property tests for the pointer distributions and the generator's
distribution-aware shuffle."""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.workload import WorkloadSpec, generate_workload
from repro.workload.distributions import (
    clustered_pointers,
    distribution_arg_names,
    partition_hot_pointers,
    permutation_pointers,
    validate_distribution_args,
    zipf_pointers,
    zipf_cumulative_weights,
)


class TestPermutationProperties:
    @given(
        count=st.integers(min_value=1, max_value=3_000),
        s_objects=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_reference_counts_within_one(self, count, s_objects, seed):
        ptrs = permutation_pointers(random.Random(seed), count, s_objects)
        assert len(ptrs) == count
        counts = Counter(ptrs)
        assert max(counts.values()) - min(counts.values()) <= 1
        # Every object below the wrap point is referenced.
        if count >= s_objects:
            assert len(counts) == s_objects


class TestPartitionHotProperties:
    @given(
        hot_fraction=st.floats(min_value=0.4, max_value=0.9),
        hot_span=st.floats(min_value=0.05, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_hot_span_over_represented(self, hot_fraction, hot_span, seed):
        s_objects = 4_000
        ptrs = partition_hot_pointers(
            random.Random(seed), 8_000, s_objects,
            hot_fraction=hot_fraction, hot_span=hot_span,
        )
        hot_limit = max(1, int(s_objects * hot_span))
        in_hot = sum(1 for p in ptrs if p < hot_limit)
        expected = hot_fraction + (1 - hot_fraction) * hot_span
        assert in_hot / len(ptrs) > expected * 0.8


class TestClusteredProperties:
    @given(
        run_length=st.integers(min_value=1, max_value=128),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_decomposes_into_sequential_runs(self, run_length, seed):
        s_objects = 2_000
        ptrs = clustered_pointers(
            random.Random(seed), 1_500, s_objects, run_length=run_length
        )
        runs = [1]
        for prev, cur in zip(ptrs, ptrs[1:]):
            if cur == (prev + 1) % s_objects:
                runs[-1] += 1
            else:
                runs.append(1)
        assert max(runs) >= min(run_length, 1_500) * 0.99
        # No run outlives its budget unless two runs happen to abut.
        assert sum(runs) == 1_500

    def test_generator_preserves_clustered_order(self):
        """Regression: the generator's shuffle must not destroy the
        locality that IS the clustered distribution."""
        workload = generate_workload(
            WorkloadSpec(
                r_objects=4_096,
                s_objects=4_096,
                distribution="clustered",
                distribution_args={"run_length": 32},
                seed=5,
            ),
            disks=4,
        )
        sequential = total = 0
        for partition in workload.r_partitions:
            ptrs = [obj.sptr for obj in partition]
            total += len(ptrs) - 1
            sequential += sum(
                1
                for prev, cur in zip(ptrs, ptrs[1:])
                if cur == (prev + 1) % workload.spec.s_objects
            )
        # With run_length=32 over partitions of 1,024 records, ~97% of
        # adjacent dereferences are sequential; a shuffle would leave
        # essentially none.
        assert sequential / total > 0.9

    def test_generator_shuffles_non_clustered(self):
        workload = generate_workload(
            WorkloadSpec(r_objects=4_096, s_objects=4_096, seed=5), disks=4
        )
        sequential = total = 0
        for partition in workload.r_partitions:
            ptrs = [obj.sptr for obj in partition]
            total += len(ptrs) - 1
            sequential += sum(
                1
                for prev, cur in zip(ptrs, ptrs[1:])
                if cur == prev + 1
            )
        assert sequential / total < 0.05


class TestZipfProperties:
    def test_theta_zero_is_uniform(self):
        ptrs = zipf_pointers(random.Random(8), 50_000, 10, theta=0.0)
        counts = Counter(ptrs)
        assert len(counts) == 10
        assert max(counts.values()) < 1.5 * min(counts.values())

    def test_huge_theta_survives_overflow(self):
        # rank ** 20000 overflows float pow; the log-space fallback keeps
        # the hottest rank at weight 1 and the tail at 0.
        ptrs = zipf_pointers(random.Random(8), 200, 5_000, theta=20_000.0)
        assert len(set(ptrs)) == 1

    def test_cumulative_weights_monotone(self):
        weights = zipf_cumulative_weights(1_000, 1.0)
        assert all(b >= a for a, b in zip(weights, weights[1:]))
        assert len(weights) == 1_000

    @given(theta=st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=10, deadline=None)
    def test_hotter_theta_concentrates(self, theta):
        rng = random.Random(3)
        ptrs = zipf_pointers(rng, 20_000, 1_000, theta=theta)
        top = Counter(ptrs).most_common(10)
        share = sum(c for _, c in top) / len(ptrs)
        uniform_share = 10 / 1_000
        assert share > uniform_share * 3


class TestArgValidation:
    def test_arg_names(self):
        assert distribution_arg_names("uniform") == []
        assert distribution_arg_names("zipf") == ["theta"]
        assert distribution_arg_names("partition_hot") == [
            "hot_fraction", "hot_span",
        ]
        assert distribution_arg_names("clustered") == ["run_length"]

    def test_validate_accepts_known(self):
        validate_distribution_args("zipf", {"theta": 0.5})
        validate_distribution_args("uniform", {})

    def test_validate_rejects_unknown(self):
        import pytest

        from repro.workload.distributions import DistributionError

        with pytest.raises(DistributionError, match="theta"):
            validate_distribution_args("zipf", {"bogus": 1})


class TestSkewAgreement:
    def test_measured_skew_matches_partition_reference_counts(self):
        """The generator's headline skew is exactly the paper's
        definition: max partition reference count over the mean."""
        workload = generate_workload(
            WorkloadSpec(
                r_objects=4_000,
                s_objects=4_000,
                distribution="partition_hot",
                distribution_args={"hot_fraction": 0.6, "hot_span": 0.25},
                seed=11,
            ),
            disks=4,
        )
        disks = len(workload.r_partitions)
        worst = 1.0
        for partition in workload.r_partitions:
            references = [0] * disks
            for obj in partition:
                references[workload.pointer_map.partition_of(obj.sptr)] += 1
            mean = sum(references) / disks
            worst = max(worst, max(references) / mean)
        assert abs(workload.measured_skew() - worst) < 1e-9

    def test_stats_document_reports_generator_skew(self, tmp_path):
        from repro.parallel import run_real_join

        workload = generate_workload(
            WorkloadSpec(
                r_objects=1_200,
                s_objects=1_200,
                distribution="partition_hot",
                distribution_args={"hot_fraction": 0.6, "hot_span": 0.25},
                seed=11,
            ),
            disks=4,
        )
        result = run_real_join(
            "grace",
            workload,
            str(tmp_path / "db"),
            use_processes=False,
            collect_pairs=False,
        )
        document = result.stats_document(workload)
        assert document["meta"]["skew"] == round(workload.measured_skew(), 4)
