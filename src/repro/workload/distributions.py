"""Join-attribute (S-pointer) distributions for workload generation.

The paper's experiments assume join attributes "randomly distributed in R"
(uniform, skew ~ 1.0); the extension benches additionally exercise skewed
and clustered reference patterns to probe the algorithms' differing skew
sensitivity.
"""

from __future__ import annotations

import inspect
import math
import random
from functools import lru_cache
from numbers import Integral, Real
from typing import Callable, List, Mapping

import numpy as np

from repro.workload.draws import WordStream

#: ``(rng, count, |S|, **args) -> uint64 pointers``.  A sampler draws
#: exactly what its per-call form in ``tests/workload/oracle.py`` draws and
#: leaves ``rng`` where that leaves it.
Sampler = Callable[..., np.ndarray]


class DistributionError(ValueError):
    """Raised for unknown or ill-parameterized distributions."""


def _check_theta(theta: object) -> None:
    if not isinstance(theta, Real) or not math.isfinite(theta):
        raise DistributionError("zipf exponent must be a finite number")
    if theta < 0:
        raise DistributionError("zipf exponent must be non-negative")


def _check_hot_fraction(hot_fraction: object) -> None:
    if not isinstance(hot_fraction, Real) or not 0.0 <= hot_fraction <= 1.0:
        raise DistributionError("hot_fraction must be within [0, 1]")


def _check_hot_span(hot_span: object) -> None:
    if not isinstance(hot_span, Real) or not 0.0 < hot_span <= 1.0:
        raise DistributionError("hot_span must be within (0, 1]")


def _check_run_length(run_length: object) -> None:
    if (
        not isinstance(run_length, Integral)
        or isinstance(run_length, bool)
        or run_length < 1
    ):
        raise DistributionError("run_length must be an integer of at least 1")


#: The value check of every distribution argument, run by the sampler and
#: by :func:`validate_distribution_args` alike.
_ARG_CHECKS: dict[str, Callable[[object], None]] = {
    "theta": _check_theta,
    "hot_fraction": _check_hot_fraction,
    "hot_span": _check_hot_span,
    "run_length": _check_run_length,
}


def uniform_pointers(rng: random.Random, count: int, s_objects: int) -> np.ndarray:
    """Independent uniform pointers — the paper's validation workload."""
    with WordStream(rng) as words:
        return words.randbelow(s_objects, count)


def permutation_pointers(
    rng: random.Random, count: int, s_objects: int
) -> np.ndarray:
    """Each S-object referenced at most once (a key/foreign-key join).

    When ``count > s_objects`` the permutation repeats, keeping reference
    counts within one of each other.
    """
    pointers = np.empty(count, dtype=np.uint64)
    with WordStream(rng) as words:
        for start in range(0, count, s_objects):
            block = words.shuffled(s_objects)
            pointers[start:start + s_objects] = block[: count - start]
    return pointers


@lru_cache(maxsize=16)
def zipf_cumulative_weights(s_objects: int, theta: float) -> np.ndarray:
    """Cumulative Zipf weights, ``cum_weights`` for ``choices``.

    Cached per (|S|, theta) so repeated sampling does not rebuild the
    O(|S|) weights on every call.  ``rank ** theta`` overflows for large
    exponents; the log-space form underflows to 0.0 instead, which is the
    correct limit (rank 1 keeps weight 1.0, the tail vanishes).  Each
    weight is Python's ``pow``, whose bits numpy's vector ``power`` does
    not promise; the running sum is ``cumsum``, which adds in rank order.
    """

    def weight(rank: int) -> float:
        try:
            return 1.0 / rank**theta
        except OverflowError:
            return math.exp(-theta * math.log(rank))

    weights = np.fromiter(
        map(weight, range(1, s_objects + 1)), dtype=np.float64, count=s_objects
    )
    cumulative = np.cumsum(weights)
    cumulative.flags.writeable = False
    return cumulative


def zipf_pointers(
    rng: random.Random, count: int, s_objects: int, theta: float = 1.0
) -> np.ndarray:
    """Zipf-distributed references: a few hot S-objects dominate.

    ``theta`` is the usual Zipf exponent; ``theta = 0`` degenerates to
    uniform.  Hot ranks are scattered over S with a fixed multiplicative
    shuffle so popularity skew does not accidentally become *partition*
    skew.
    """
    _check_theta(theta)
    cum_weights = zipf_cumulative_weights(s_objects, float(theta))
    with WordStream(rng) as words:
        ranks = words.choices(cum_weights, count)
    # Scatter ranks across S: multiply by an odd stride modulo |S|.
    stride = _coprime_stride(s_objects)
    return ((ranks * stride + 1) % s_objects).astype(np.uint64)


def partition_hot_pointers(
    rng: random.Random,
    count: int,
    s_objects: int,
    hot_fraction: float = 0.5,
    hot_span: float = 0.25,
) -> np.ndarray:
    """Partition-skewed references: ``hot_fraction`` of pointers land in
    the first ``hot_span`` of S.

    This is the distribution that drives the paper's ``skew`` parameter
    above 1.0, gating the synchronized algorithms.
    """
    _check_hot_fraction(hot_fraction)
    _check_hot_span(hot_span)
    hot_limit = max(1, int(s_objects * hot_span))
    with WordStream(rng) as words:
        return words.random_then_below(hot_fraction, hot_limit, s_objects, count)


def clustered_pointers(
    rng: random.Random, count: int, s_objects: int, run_length: int = 32
) -> np.ndarray:
    """Locally-sequential references: runs of consecutive S-objects.

    Models R built by a clustered scan of S — friendly to nested loops'
    buffer, since consecutive dereferences hit the same S pages.
    """
    _check_run_length(run_length)
    width = max(1, min(run_length, count))
    with WordStream(rng) as words:
        starts = words.randbelow(s_objects, -(-count // width))
    steps = np.arange(width, dtype=np.uint64)
    return ((starts[:, None] + steps) % np.uint64(s_objects)).ravel()[:count]


# The whole point of clustered references is that R's *order* carries the
# locality; the generator must not shuffle it away.
clustered_pointers.order_matters = True


def _coprime_stride(n: int) -> int:
    """A multiplicative stride coprime with n (for rank scattering)."""
    stride = max(3, int(n * 0.61803) | 1)
    while math.gcd(stride, n) != 1:
        stride += 2
    return stride


DISTRIBUTIONS: dict[str, Sampler] = {
    "uniform": uniform_pointers,
    "permutation": permutation_pointers,
    "zipf": zipf_pointers,
    "partition_hot": partition_hot_pointers,
    "clustered": clustered_pointers,
}


def sampler(name: str) -> Sampler:
    """Look up a pointer distribution by name."""
    try:
        return DISTRIBUTIONS[name]
    except KeyError:
        raise DistributionError(
            f"unknown distribution {name!r}; choices: {sorted(DISTRIBUTIONS)}"
        ) from None


def distribution_arg_names(name: str) -> List[str]:
    """The keyword parameters a distribution accepts beyond (rng, count, |S|)."""
    return list(inspect.signature(sampler(name)).parameters)[3:]


def validate_distribution_args(name: str, args: Mapping[str, object]) -> None:
    """Reject bad ``distribution_args`` before any work is done.

    Raises :class:`DistributionError` naming unknown keys and the accepted
    ones, or the first value the sampler itself would refuse, so callers
    (the CLI in particular) can fail before a store is created.
    """
    allowed = distribution_arg_names(name)
    unknown = sorted(set(args) - set(allowed))
    if unknown:
        accepted = ", ".join(allowed) if allowed else "none"
        raise DistributionError(
            f"distribution {name!r} does not accept {unknown}; "
            f"accepted args: {accepted}"
        )
    for key, value in args.items():
        _ARG_CHECKS[key](value)
