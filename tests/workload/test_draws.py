"""Every bulk draw equals the per-call ``random.Random`` draws it replaces.

Each test runs one draw kind of :class:`WordStream` on one generator and
the per-call form on a twin seeded alike, compares the values, and then
checks that the next ``rng.random()`` of both agree: the stream must leave
``rng`` exactly where the per-call draws leave it.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.workload import DISTRIBUTIONS, WorkloadSpec, generate_workload
from repro.workload.distributions import zipf_cumulative_weights
from repro.workload.draws import BLOCK_WORDS, WordStream

from tests.workload import oracle

seeds = st.integers(min_value=0, max_value=2**32)

#: 1, 2, 2**k - 1, 2**k and 2**k + 1 for every k, and the widest bounds.
BOUNDS = sorted(
    {1, 2, 1 << 30, 1 << 31, (1 << 32) - 1}
    | {(1 << k) + d for k in range(1, 32) for d in (-1, 0, 1)}
)


def twins(seed):
    return random.Random(seed), random.Random(seed)


def assert_in_step(fast, slow):
    assert fast.random() == slow.random()


@given(
    bound=st.sampled_from(BOUNDS),
    count=st.integers(min_value=0, max_value=BLOCK_WORDS + 1_024),
    seed=seeds,
)
@settings(max_examples=30, deadline=None)
def test_randrange(bound, count, seed):
    fast, slow = twins(seed)
    with WordStream(fast) as words:
        drawn = words.randbelow(bound, count)
    assert drawn.dtype == np.uint64
    assert drawn.tolist() == [slow.randrange(bound) for _ in range(count)]
    assert_in_step(fast, slow)


@pytest.mark.parametrize("bound", [0, 1 << 32, 1 << 40])
def test_randrange_refuses_bounds_beyond_one_word(bound):
    with pytest.raises(ValueError):
        with WordStream(random.Random(1)) as words:
            words.randbelow(bound, 1)


@given(
    first=st.sampled_from([1, 2, 3, 1_000_000, (1 << 30) - 1, 1 << 30]),
    second=st.sampled_from([1, 5, 1 << 16, 1 << 30, (1 << 31) + 1]),
    count=st.integers(min_value=0, max_value=2 * BLOCK_WORDS),
    seed=seeds,
)
@settings(max_examples=25, deadline=None)
def test_alternating_pair(first, second, count, seed):
    fast, slow = twins(seed)
    with WordStream(fast) as words:
        a, b = words.alternating(first, second, count)
    expected = [
        slow.randrange(bound) for _ in range(count) for bound in (first, second)
    ]
    assert a.tolist() == expected[0::2]
    assert b.tolist() == expected[1::2]
    assert_in_step(fast, slow)


@given(count=st.integers(min_value=0, max_value=2 * BLOCK_WORDS), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_random(count, seed):
    fast, slow = twins(seed)
    with WordStream(fast) as words:
        drawn = words.random(count)
    assert drawn.tolist() == [slow.random() for _ in range(count)]
    assert_in_step(fast, slow)


@given(
    s_objects=st.integers(min_value=1, max_value=3_000),
    theta=st.sampled_from([0.0, 0.5, 1.0, 1.2, 3.0, 300.0, 20_000.0]),
    count=st.integers(min_value=0, max_value=BLOCK_WORDS + 100),
    seed=seeds,
)
@settings(max_examples=40, deadline=None)
def test_choices(s_objects, theta, count, seed):
    # Large thetas underflow the Zipf tail to zero weight: the tail must
    # never be picked, and rank 0 (bisect's clamp) always wins.
    cum_weights = zipf_cumulative_weights(s_objects, theta)
    assert cum_weights.tolist() == oracle.zipf_cumulative_weights(s_objects, theta)
    fast, slow = twins(seed)
    with WordStream(fast) as words:
        drawn = words.choices(cum_weights, count)
    expected = slow.choices(
        range(s_objects), cum_weights=cum_weights.tolist(), k=count
    )
    assert drawn.tolist() == expected
    assert_in_step(fast, slow)


@given(
    threshold=st.sampled_from([0.0, 0.1, 0.5, 0.8, 1.0]),
    low=st.sampled_from([1, 2, 3, 100, 25_600, (1 << 31) + 1]),
    high=st.sampled_from([1, 7, 102_400, 1 << 30, (1 << 32) - 1]),
    count=st.integers(min_value=0, max_value=BLOCK_WORDS),
    seed=seeds,
)
@settings(max_examples=40, deadline=None)
def test_random_then_randrange(threshold, low, high, count, seed):
    fast, slow = twins(seed)
    with WordStream(fast) as words:
        drawn = words.random_then_below(threshold, low, high, count)
    expected = [
        slow.randrange(low) if slow.random() < threshold else slow.randrange(high)
        for _ in range(count)
    ]
    assert drawn.tolist() == expected
    assert_in_step(fast, slow)


#: 0, 1, 2 and both sides of every bit-length boundary a shuffle crosses
#: up to 2**15, where its index type widens to int32.
SHUFFLE_LENGTHS = sorted(
    {0, 1, 2, 3} | {(1 << k) + d for k in range(2, 16) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("n", SHUFFLE_LENGTHS)
def test_shuffle(n):
    fast, slow = twins(n)
    with WordStream(fast) as words:
        drawn = words.shuffled(n)
    expected = list(range(n))
    slow.shuffle(expected)
    assert drawn.tolist() == expected
    assert_in_step(fast, slow)


@given(n=st.integers(min_value=0, max_value=5_000), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_shuffle_any_length(n, seed):
    fast, slow = twins(seed)
    with WordStream(fast) as words:
        drawn = words.shuffled(n)
    expected = list(range(n))
    slow.shuffle(expected)
    assert drawn.tolist() == expected
    assert_in_step(fast, slow)


def test_draw_kinds_share_one_stream():
    fast, slow = twins(2024)
    with WordStream(fast) as words:
        drawn = [
            words.randbelow(17, 1_000).tolist(),
            words.shuffled(3_000).tolist(),
            words.random(3).tolist(),
            words.alternating(5, 9, 5_000),
        ]
    assert drawn[0] == [slow.randrange(17) for _ in range(1_000)]
    order = list(range(3_000))
    slow.shuffle(order)
    assert drawn[1] == order
    assert drawn[2] == [slow.random() for _ in range(3)]
    pairs = [slow.randrange(bound) for _ in range(5_000) for bound in (5, 9)]
    assert drawn[3][0].tolist() == pairs[0::2]
    assert drawn[3][1].tolist() == pairs[1::2]
    assert_in_step(fast, slow)


def test_untouched_stream_leaves_rng_alone():
    fast, slow = twins(5)
    with WordStream(fast):
        pass
    assert_in_step(fast, slow)


SAMPLER_ARGS = {
    "uniform": st.just({}),
    "permutation": st.just({}),
    "zipf": st.fixed_dictionaries(
        {"theta": st.sampled_from([0, 0.5, 1.0, 1.2, 40.0])}),
    "partition_hot": st.fixed_dictionaries({
        "hot_fraction": st.sampled_from([0, 0.3, 0.8, 1]),
        "hot_span": st.sampled_from([0.01, 0.1, 0.25, 1]),
    }),
    "clustered": st.fixed_dictionaries(
        {"run_length": st.sampled_from([1, 2, 7, 32, 10_000])}),
}


@st.composite
def sampler_calls(draw):
    name = draw(st.sampled_from(sorted(DISTRIBUTIONS)))
    return (
        name,
        draw(st.integers(min_value=0, max_value=6_000)),
        draw(st.integers(min_value=1, max_value=3_000)),
        draw(SAMPLER_ARGS[name]),
    )


@given(call=sampler_calls(), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_samplers_match_oracle(call, seed):
    name, count, s_objects, args = call
    fast, slow = twins(seed)
    pointers = DISTRIBUTIONS[name](fast, count, s_objects, **args)
    assert pointers.dtype == np.uint64
    assert pointers.tolist() == oracle.SAMPLERS[name](slow, count, s_objects, **args)
    assert_in_step(fast, slow)


@given(
    call=sampler_calls(),
    r_extra=st.integers(min_value=1, max_value=4_000),
    disks=st.integers(min_value=1, max_value=5),
    seed=seeds,
)
@settings(max_examples=20, deadline=None)
def test_workload_matches_oracle(call, r_extra, disks, seed):
    name, _count, s_objects, args = call
    spec = WorkloadSpec(
        r_objects=r_extra, s_objects=s_objects, distribution=name,
        distribution_args=args, seed=seed,
    )
    ours = generate_workload(spec, disks)
    reference = oracle.generate_workload(spec, disks)
    assert ours.s_value.tolist() == reference.s_value.tolist()
    assert ours.s_payload.tolist() == reference.s_payload.tolist()
    for mine, theirs in zip(ours.r_columns, reference.r_columns):
        for a, b in zip(mine, theirs):
            assert a.dtype == b.dtype == np.uint64
            assert a.tolist() == b.tolist()


def test_generation_never_imports_numpy_random():
    code = (
        "import sys\n"
        "from repro.workload import DISTRIBUTIONS, WorkloadSpec, generate_workload\n"
        "for name in DISTRIBUTIONS:\n"
        "    generate_workload(WorkloadSpec(r_objects=500, s_objects=300,"
        " distribution=name), 4)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
        "sys.exit(f'numpy.random was imported: {loaded}' if loaded else 0)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code], check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
