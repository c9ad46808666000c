"""Reference (oracle) join and output verification.

Pointer-based join semantics make correctness sharply checkable: every
R-object joins exactly the S-object its pointer names, once.  The oracle
therefore follows directly from the workload, and verification catches the
real failure modes of the parallel algorithms — lost objects in the
redistribution passes, duplicated emissions, or pairs routed to the wrong
partition.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List

import numpy as np

from repro.core.records import JoinedPair, JoinedPairs
from repro.workload.generator import Workload


class JoinVerificationError(AssertionError):
    """Raised when a join produced wrong output."""


def _joined_columns(workload: Workload):
    """The correct output as (rid, sid, r_payload, s_value) u64 columns."""
    rid, sptr, payload = workload.r_flat()
    return rid, sptr, payload, workload.s_value[sptr]


def reference_join(workload: Workload) -> List[JoinedPair]:
    """The correct join output, computed directly (no simulation)."""
    return list(map(
        JoinedPair._make,
        zip(*(column.tolist() for column in _joined_columns(workload))),
    ))


def _row_sorted(block: np.ndarray) -> np.ndarray:
    """The rows of an ``(n, 4)`` block in lexicographic order."""
    return block[np.lexsort(block.T[::-1])]


def verify_pairs(workload: Workload, pairs: Iterable[JoinedPair]) -> int:
    """Check a join's output against the oracle; returns the pair count.

    Output order is immaterial (the paper: "nor do we assume that the join
    results are generated in any particular order"), so comparison is by
    multiset: a columnar :class:`JoinedPairs` is row-sorted and compared
    with the oracle's columns; any other iterable is counted, as is a
    wrong ``JoinedPairs``, to word the error.
    """
    if isinstance(pairs, JoinedPairs):
        oracle = np.stack(_joined_columns(workload), axis=1)
        if pairs.columns.shape == oracle.shape and np.array_equal(
            _row_sorted(pairs.columns), _row_sorted(oracle)
        ):
            return len(pairs)
    expected = Counter(reference_join(workload))
    produced = Counter(pairs)
    if expected == produced:
        return sum(produced.values())

    missing = expected - produced
    extra = produced - expected
    problems = []
    if missing:
        sample = next(iter(missing))
        problems.append(f"{sum(missing.values())} missing (e.g. {sample})")
    if extra:
        sample = next(iter(extra))
        problems.append(f"{sum(extra.values())} unexpected (e.g. {sample})")
    raise JoinVerificationError("join output incorrect: " + "; ".join(problems))


def expected_checksum(workload: Workload) -> int:
    """The PairCollector checksum the correct output must produce."""
    rid, sid, _payload, s_value = _joined_columns(workload)
    # u64 arithmetic wraps modulo 2**64, of which 2**61 is a divisor, so
    # the wrapped sum reduces to exactly what the unbounded one would.
    terms = rid * np.uint64(1_000_003) + sid * np.uint64(7919) + s_value
    return int(terms.sum(dtype=np.uint64)) % (1 << 61)
