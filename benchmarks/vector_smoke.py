"""CI smoke bench: vectorized kernels at scale 0.2, with a pairs/sec
regression gate.

Standalone (no pytest): ``PYTHONPATH=src python benchmarks/vector_smoke.py``.
Runs the four registered plans at 1/5th of the paper's validation
geometry under both
kernel modes, asserts the modes agree bit-for-bit (pair count + checksum),
and gates on the vectorized throughput: per-algorithm the vector kernels
must not be slower than scalar, and the suite-aggregate speedup must hold
a conservative floor.  The floor is far below what the full bench records
(>=10x at scale 1.0) because CI runners are slow, shared, and noisy — this
gate catches a vectorized path that silently fell back to scalar or
regressed wholesale, not small perf drift.

Methodology mirrors ``bench_ext_real_mmap.py``: per-mode cost is the best
(minimum) summed join-pass wall over the rounds, since I/O noise is
strictly additive; ``pairs_per_sec`` divides pairs by that best pass wall.
"""

import json
import sys
import tempfile

from repro import config
from repro.parallel import run_real_join
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = (
    "nested-loops",
    "sort-merge",
    "grace",
    "hybrid-hash",
)
SCALE = 0.2
ROUNDS = 3

#: Per-algorithm: vector must at least match scalar (ratio >= this).
PER_ALGORITHM_FLOOR = 1.0
#: Suite aggregate (summed pass walls): the vectorized kernels must keep
#: a clear margin even on a noisy CI runner.
AGGREGATE_FLOOR = 1.5


def measure(workload, algorithm, mode):
    pass_walls = []
    result = None
    for _ in range(ROUNDS):
        with tempfile.TemporaryDirectory() as root:
            result = run_real_join(
                algorithm, workload, root, use_processes=False,
                collect_metrics=False, kernels=mode,
            )
        assert result.kernel_mode == mode, (algorithm, mode)
        pass_walls.append(sum(result.pass_wall_ms.values()))
    best = min(pass_walls)
    return {
        "pass_ms": best,
        "pair_count": result.pair_count,
        "checksum": result.checksum,
        "pairs_per_sec": result.pair_count / (best / 1000.0),
    }


def main() -> int:
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=SCALE), disks=4
    )
    totals = {"scalar": 0.0, "vector": 0.0}
    report = {"scale": SCALE, "rounds": ROUNDS, "algorithms": {}}
    failures = []
    for algorithm in ALGORITHMS:
        measured = {
            mode: measure(workload, algorithm, mode)
            for mode in ("scalar", "vector")
        }
        scalar, vector = measured["scalar"], measured["vector"]
        if vector["checksum"] != scalar["checksum"] or (
            vector["pair_count"] != scalar["pair_count"]
        ):
            failures.append(
                f"{algorithm}: kernel modes disagree "
                f"(scalar {scalar['pair_count']}/{scalar['checksum']}, "
                f"vector {vector['pair_count']}/{vector['checksum']})"
            )
        ratio = scalar["pass_ms"] / vector["pass_ms"]
        if ratio < PER_ALGORITHM_FLOOR:
            failures.append(
                f"{algorithm}: vector kernels slower than scalar "
                f"({vector['pass_ms']:.1f} vs {scalar['pass_ms']:.1f} ms)"
            )
        totals["scalar"] += scalar["pass_ms"]
        totals["vector"] += vector["pass_ms"]
        report["algorithms"][algorithm] = {
            "scalar": scalar,
            "vector": vector,
            "vector_speedup": ratio,
        }
        print(
            f"{algorithm:>14}: scalar {scalar['pass_ms']:7.1f} ms | "
            f"vector {vector['pass_ms']:7.1f} ms | {ratio:4.1f}x | "
            f"{vector['pairs_per_sec']:,.0f} pairs/sec"
        )

    aggregate = totals["scalar"] / totals["vector"]
    report["aggregate_vector_speedup"] = aggregate
    print(f"{'aggregate':>14}: {aggregate:.2f}x (floor {AGGREGATE_FLOOR}x)")
    if aggregate < AGGREGATE_FLOOR:
        failures.append(
            f"aggregate vector speedup {aggregate:.2f}x fell below the "
            f"{AGGREGATE_FLOOR}x regression floor"
        )

    out = config.env_value("smoke_out")
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
