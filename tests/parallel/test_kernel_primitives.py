"""The vector kernels' per-batch primitives against their slow references.

Every vector kernel is one grouping, one stable order or one pointer
location per batch plus gathers, so these three functions carry the
kernels' bit-identity:

* :func:`_stable_order` — the composite-key SIMD sort — must be exactly
  ``np.argsort(kind="stable")``, ties and the too-wide fallback included;
* :func:`_group` — the radix grouping — must select the rows per-key
  masks select and list groups in first-appearance order (the scalar
  kernels' ``dict.setdefault`` order);
* :meth:`PointerMap.locate_array` — one ``searchsorted`` over the
  partition starts — must agree with the scalar :meth:`PointerMap.locate`
  on every pointer, empty partitions included.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given, settings, strategies as st

from repro.core.pointer import PointerError, PointerMap
from repro.parallel.vectorized import _group, _stable_order

U64_MAX = 2**64 - 1


def first_appearance(keys) -> list:
    """Distinct keys ordered by first appearance: ``np.unique`` plus an
    argsort of the first indices (the grouping the kernels used to do)."""
    uniq, first = np.unique(keys, return_index=True)
    return [int(k) for k in uniq[np.argsort(first, kind="stable")]]


class TestStableOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 5_000),
        distinct=st.integers(1, 64),
        top=st.sampled_from([1, 63, 2**20, 2**44, 2**63, U64_MAX]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5_000, distinct=3, top=U64_MAX, seed=0)
    def test_equals_stable_argsort(self, n, distinct, top, seed):
        """Few distinct keys, so ties are heavy; keys near 2**64 leave no
        room for the row tag and take the fallback."""
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, top, distinct, dtype=np.uint64, endpoint=True)
        keys = pool[rng.integers(0, distinct, n)]
        order = _stable_order(keys)
        np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("top", [2**52 - 1, 2**52])
    def test_tag_width_boundary(self, top):
        """4,096 rows need a 12-bit tag: a 52-bit key fills the composite
        to exactly 64 bits, one more bit takes the fallback."""
        keys = np.tile(np.asarray([top, 0, top // 2], dtype=np.uint64), 1366)
        keys = keys[:4_096]
        np.testing.assert_array_equal(
            _stable_order(keys), np.argsort(keys, kind="stable")
        )

    def test_strided_keys(self):
        """Kernels sort a field view of a record array, not a copy."""
        records = np.zeros(
            7, dtype={"names": ["f1"], "formats": ["<u8"], "itemsize": 128}
        )
        records["f1"] = [5, 1, 5, 0, 1, 5, 0]
        np.testing.assert_array_equal(
            _stable_order(records["f1"]), [3, 6, 1, 4, 0, 2, 5]
        )


class TestGroup:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 300),
        length=st.integers(0, 3_000),
        used=st.integers(1, 300),
        dtype=st.sampled_from([np.uint64, np.intp]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_unique_plus_masks(self, n, length, used, dtype, seed):
        """``n`` past 256 takes the 16-bit radix path; ``used`` < ``n``
        leaves empty groups between the present ones."""
        rng = np.random.default_rng(seed)
        present = rng.choice(n, min(used, n), replace=False)
        keys = present[rng.integers(0, len(present), length)].astype(dtype)
        order, bounds, groups = _group(keys, n)
        assert len(bounds) == n + 1 and bounds[0] == 0
        assert bounds[-1] == length
        for g in range(n):
            np.testing.assert_array_equal(
                order[bounds[g]:bounds[g + 1]], np.flatnonzero(keys == g)
            )
        assert groups == first_appearance(keys)


class TestLocateArray:
    @settings(max_examples=200, deadline=None)
    @given(
        s_objects=st.integers(1, 5_000),
        partitions=st.integers(1, 64),
        data=st.data(),
    )
    def test_equals_scalar_locate(self, s_objects, partitions, data):
        """Small ``s_objects`` with many partitions leaves a tail of empty
        partitions that no pointer may land in."""
        pmap = PointerMap(s_objects=s_objects, partitions=partitions)
        drawn = data.draw(
            st.lists(st.integers(0, s_objects - 1), max_size=200)
        )
        sptrs = [0, s_objects - 1, *drawn]
        parts, offs = pmap.locate_array(np.asarray(sptrs, dtype=np.uint64))
        assert list(zip(parts.tolist(), offs.tolist())) == [
            pmap.locate(sptr) for sptr in sptrs
        ]
        assert offs.dtype == np.uint64

    def test_empty_batch(self):
        parts, offs = PointerMap(10, 3).locate_array(
            np.empty(0, dtype=np.uint64)
        )
        assert len(parts) == len(offs) == 0

    @pytest.mark.parametrize("s_objects,partitions", [(10, 3), (3, 8)])
    def test_out_of_range_pointer_raises(self, s_objects, partitions):
        pmap = PointerMap(s_objects=s_objects, partitions=partitions)
        for bad in (s_objects, U64_MAX):
            with pytest.raises(PointerError):
                pmap.locate_array(np.asarray([0, bad], dtype=np.uint64))
