"""Object records for the pointer-based join.

R-objects carry the join attribute as a *virtual pointer* (``sptr``) — the
global index of an S-object — which is the defining trait of the paper's
algorithms: the pointer induces an implicit physical ordering of S, so S
never needs sorting or hashing.

Records are plain named tuples: the simulator accounts their size through
the declared ``r_bytes``/``s_bytes``, so the Python-side representation can
stay minimal while payload fields keep join verification meaningful.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, NamedTuple

import numpy as np


class RObject(NamedTuple):
    """One object of the outer relation R."""

    rid: int       # unique identifier
    sptr: int      # virtual pointer: global index into S
    payload: int   # carried data, exercised by verification checksums


class SObject(NamedTuple):
    """One object of the inner relation S."""

    sid: int       # unique identifier == its global index
    value: int     # joined attribute value
    payload: int


class JoinedPair(NamedTuple):
    """One output tuple of the join."""

    rid: int
    sid: int
    r_payload: int
    s_value: int


class JoinedPairs(Sequence):
    """A join's whole output as one immutable columnar block.

    ``columns`` is a read-only ``(n, 4)`` ``<u8`` array — one row per
    pair, the PAIRS segments' stored format — and the object behaves as a
    sequence of :class:`JoinedPair` over it: objects are formed only for
    the rows a caller indexes or iterates, never for the whole result.
    Equal by value to another ``JoinedPairs`` or to a list of pairs, and
    (like any by-value container) unhashable.
    """

    def __init__(self, block=()) -> None:
        # reshape hands back a fresh view, so the caller's flags are untouched.
        columns = np.asarray(block, dtype="<u8").reshape(-1, 4)
        columns.flags.writeable = False
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return JoinedPairs(self.columns[index])
        return JoinedPair._make(self.columns[index].tolist())

    def __iter__(self) -> Iterator[JoinedPair]:
        # Boxed a chunk at a time, so iterating never doubles the block.
        for lo in range(0, len(self.columns), 4096):
            yield from map(
                JoinedPair._make, self.columns[lo : lo + 4096].tolist()
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, JoinedPairs):
            return np.array_equal(self.columns, other.columns)
        if isinstance(other, list):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"JoinedPairs(n={len(self)})"


def join_pair(r: RObject, s: SObject) -> JoinedPair:
    """Form the output tuple for a matched R/S pair."""
    return JoinedPair(rid=r.rid, sid=s.sid, r_payload=r.payload, s_value=s.value)
