"""Tests for the oracle join and verification."""

import numpy as np
import pytest

from repro.core.records import JoinedPair, JoinedPairs
from repro.joins.reference import (
    JoinVerificationError,
    expected_checksum,
    reference_join,
    verify_pairs,
)
from repro.workload import WorkloadSpec, generate_workload


@pytest.fixture(scope="module")
def workload():
    return generate_workload(WorkloadSpec(r_objects=100, s_objects=100, seed=2), 2)


class TestReferenceJoin:
    def test_one_pair_per_r_object(self, workload):
        assert len(reference_join(workload)) == 100

    def test_pairs_follow_pointers(self, workload):
        for pair in reference_join(workload):
            assert workload.s_objects[pair.sid].value == pair.s_value


class TestVerifyPairs:
    def test_accepts_correct_output(self, workload):
        pairs = reference_join(workload)
        assert verify_pairs(workload, pairs) == 100

    def test_accepts_any_order(self, workload):
        pairs = list(reversed(reference_join(workload)))
        assert verify_pairs(workload, pairs) == 100

    def test_rejects_missing_pair(self, workload):
        pairs = reference_join(workload)[:-1]
        with pytest.raises(JoinVerificationError, match="missing"):
            verify_pairs(workload, pairs)

    def test_rejects_duplicated_pair(self, workload):
        pairs = reference_join(workload)
        with pytest.raises(JoinVerificationError, match="unexpected"):
            verify_pairs(workload, pairs + [pairs[0]])

    def test_rejects_corrupted_pair(self, workload):
        pairs = reference_join(workload)
        bad = JoinedPair(
            rid=pairs[0].rid, sid=pairs[0].sid,
            r_payload=pairs[0].r_payload + 1, s_value=pairs[0].s_value,
        )
        with pytest.raises(JoinVerificationError):
            verify_pairs(workload, [bad] + pairs[1:])


S_VALUE_BIT_OF_ROW_3 = np.zeros((100, 4), np.uint64)
S_VALUE_BIT_OF_ROW_3[3, 3] = 1


class TestVerifyPairsColumnar:
    """A ``JoinedPairs`` is checked as arrays, and judged exactly as the
    list of the same pairs is."""

    def test_accepts_a_permuted_correct_block(self, workload):
        block = JoinedPairs(reference_join(workload)).columns
        shuffled = block[np.random.default_rng(5).permutation(len(block))]
        assert verify_pairs(workload, JoinedPairs(shuffled)) == 100

    @pytest.mark.parametrize("damage, match", [
        (lambda block: block[:-1], r"^join output incorrect: 1 missing"),
        (lambda block: np.concatenate([block, block[:1]]),
         r"^join output incorrect: 1 unexpected"),
        (lambda block: block ^ S_VALUE_BIT_OF_ROW_3,
         r"^join output incorrect: 1 missing \(e\.g\. .*; 1 unexpected \(e\.g\. "),
    ], ids=["dropped-row", "duplicated-row", "flipped-s_value"])
    def test_rejects_wrong_output_in_the_list_paths_words(
        self, workload, damage, match
    ):
        wrong = JoinedPairs(damage(JoinedPairs(reference_join(workload)).columns))
        with pytest.raises(JoinVerificationError, match=match) as columnar:
            verify_pairs(workload, wrong)
        with pytest.raises(JoinVerificationError) as boxed:
            verify_pairs(workload, list(wrong))
        assert str(columnar.value) == str(boxed.value)

    def test_still_accepts_a_generator_of_plain_tuples(self, workload):
        assert verify_pairs(
            workload, (tuple(pair) for pair in reference_join(workload))
        ) == 100


class TestExpectedChecksum:
    def test_stable(self, workload):
        assert expected_checksum(workload) == expected_checksum(workload)

    def test_differs_across_workloads(self, workload):
        other = generate_workload(
            WorkloadSpec(r_objects=100, s_objects=100, seed=3), 2
        )
        assert expected_checksum(workload) != expected_checksum(other)
