"""Extension: the real-mmap backend (paper §2.1, µDatabase).

Runs the four pointer-based joins on actual ``mmap``-backed segment files
with one OS process per partition, and measures the real machine's
Figure 1(b) analogue (timed newMap/openMap/deleteMap).  Wall-clock numbers
here are of the *host*, not the simulated 1996 machine — the point is that
the same algorithms run unchanged on a genuine single-level store.

Two join benches write the machine-readable, append-only
``results/BENCH_real_mmap.json`` (schema v2: ``{"schema_version": 2,
"runs": [...]}``, one entry appended per bench invocation so the perf
trajectory is trackable across PRs):

* ``test_ext_real_mmap_joins`` — the metrics-overhead measurement at the
  quick default scale: interleaved metrics-off/metrics-on rounds, a
  robust paired-median delta, and a minimum-effect floor so scheduler
  jitter can neither fail nor greenwash the gate.
* ``test_ext_real_mmap_kernel_scales`` — the stage kernels at
  first-class scales 0.05 and **1.0 (the paper's full 102,400-object
  geometry)**, recording per-scale, per-algorithm ``pairs_per_sec``.
  Scale 10 joins behind ``REPRO_BENCH_FULL=1``.  Cost is the best
  (minimum) summed pass wall over the rounds: I/O noise on a shared host
  is strictly additive, so the minimum is the robust estimator of true
  kernel cost; ``pairs_per_sec`` is pairs over summed join-pass walls
  (driver-side workload materialization is excluded).
"""

import json
import multiprocessing
import os
import statistics
import tempfile
import time
from pathlib import Path

from conftest import RESULTS_DIR, bench_scale

from repro import config
from repro.harness.report import format_table
from repro.joins import verify_pairs
from repro.joins.reference import expected_checksum
from repro.parallel import run_real_join
from repro.storage import (
    timed_delete_map,
    timed_new_map,
    timed_open_map,
)
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = (
    "nested-loops",
    "sort-merge",
    "grace",
    "hybrid-hash",
)
ROUNDS = 5
BENCH_PATH = RESULTS_DIR / "BENCH_real_mmap.json"

#: First-class kernel-measurement scales; 1.0 is the paper's validation
#: geometry (102,400 x 128-byte objects).  Scale 10 (1,024,000 objects)
#: joins the list with REPRO_BENCH_FULL=1.
KERNEL_SCALES = (0.05, 1.0)
FULL_SCALE = 10.0
KERNEL_ROUNDS = 4


# ------------------------------------------------------- artifact (schema v2)

def _load_bench_runs() -> list:
    """Current run entries; a legacy (v1) artifact is kept as the first."""
    try:
        payload = json.loads(BENCH_PATH.read_text())
    except (OSError, ValueError):
        return []
    if isinstance(payload, dict) and payload.get("schema_version") == 2:
        runs = payload.get("runs")
        return runs if isinstance(runs, list) else []
    return [{"kind": "legacy-v1", "payload": payload}]


def _append_bench_run(entry: dict) -> None:
    runs = _load_bench_runs()
    runs.append(entry)
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_PATH.write_text(
        json.dumps({"schema_version": 2, "runs": runs}, indent=2) + "\n"
    )


def test_ext_real_mmap_joins(benchmark, record, record_stats):
    scale = bench_scale(0.05)
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=scale), disks=4
    )
    checksum = expected_checksum(workload)

    def run_suite(pool, collect_metrics):
        out = {}
        with tempfile.TemporaryDirectory() as root:
            for name in ALGORITHMS:
                out[name] = run_real_join(
                    name, workload, str(Path(root) / name),
                    use_processes=True, pool=pool,
                    collect_metrics=collect_metrics,
                )
        return out

    walls = {name: {False: [], True: []} for name in ALGORITHMS}
    with multiprocessing.Pool(processes=workload.disks) as pool:
        # The benchmark fixture times one uninstrumented suite (the perf
        # trajectory number tracked across PRs)...
        results_off = benchmark.pedantic(
            lambda: run_suite(pool, collect_metrics=False),
            rounds=1, iterations=1,
        )
        for name, res in results_off.items():
            walls[name][False].append(res.wall_ms)
        # ...then the overhead measurement interleaves metrics-off and
        # metrics-on rounds so drift (cache warmth, CPU frequency) hits
        # both modes alike, and the medians isolate the metrics cost.
        results_on = None
        for _ in range(ROUNDS):
            for collect in (False, True):
                suite = run_suite(pool, collect_metrics=collect)
                for name, res in suite.items():
                    walls[name][collect].append(res.wall_ms)
                if collect:
                    results_on = suite

    # Oracle verification stays outside the timed region: it exercises the
    # reference join, not the backend under measurement.
    for res in results_on.values():
        verify_pairs(workload, res.pairs)

    medians = {
        name: {
            "off": statistics.median(walls[name][False]),
            "on": statistics.median(walls[name][True]),
        }
        for name in ALGORITHMS
    }
    # Overhead gate input: each metrics-on round paired with the
    # metrics-off round that ran right next to it, so slow drift (CPU
    # frequency, co-tenants on a shared runner) cancels within the pair
    # instead of landing on whichever mode ran later.  walls[False] has
    # one extra leading entry — the benchmark-fixture round — so the
    # interleaved off rounds start at index 1.
    paired_delta_ms = {
        name: statistics.median(
            on - off
            for off, on in zip(walls[name][False][1:], walls[name][True])
        )
        for name in ALGORITHMS
    }
    # The minimum effect the gate can resolve: on a loaded runner with
    # fewer cores than workers the per-worker metrics cost serializes
    # onto the wall clock, so the absolute floor scales with that
    # serialization factor.  Deltas inside the floor — positive *or*
    # negative (the seed artifact recorded a -1.3% "overhead") — are
    # scheduler jitter, reported as within-noise, and cannot flip the
    # gate at any scale because the floor is the max, not the sum, of
    # the absolute and relative allowances.
    serialization = max(1.0, workload.disks / (os.cpu_count() or 1))
    floor_ms = {
        name: max(15.0 * serialization, medians[name]["off"] * 0.05)
        for name in ALGORITHMS
    }
    overhead = {
        name: {
            "paired_delta_ms": paired_delta_ms[name],
            "paired_delta_pct": (
                100.0 * paired_delta_ms[name] / medians[name]["off"]
                if medians[name]["off"] else None
            ),
            "noise_floor_ms": floor_ms[name],
            "within_noise": abs(paired_delta_ms[name]) <= floor_ms[name],
        }
        for name in ALGORITHMS
    }

    stats_paths = {}
    for name, res in results_on.items():
        document = res.stats_document(workload)
        stats_paths[name] = record_stats(f"STATS_real_{name}", document).name

    rows = [
        [
            name,
            medians[name]["off"],
            medians[name]["on"],
            f"{paired_delta_ms[name]:+.1f}ms"
            + (" (noise)" if overhead[name]["within_noise"] else ""),
            results_on[name].pair_count,
        ]
        for name in ALGORITHMS
    ]
    text = "\n".join(
        [
            "== Extension: real mmap backend — batched block I/O, "
            "zero-pickle PAIRS segments (host wall-clock) ==",
            format_table(
                [
                    "algorithm",
                    "median_ms",
                    "median_ms_metrics",
                    "metrics_cost",
                    "pairs",
                ],
                rows,
            ),
            f"Medians over {ROUNDS} interleaved rounds per mode; metrics "
            "cost is the median paired round delta; stats documents: "
            + ", ".join(stats_paths[name] for name in ALGORITHMS),
        ]
    )
    record("ext_real_mmap", text)

    _append_bench_run({
        "kind": "metrics-overhead",
        "timestamp": time.time(),
        "workload": {
            "scale": scale,
            "r_objects": workload.r_objects_total,
            "s_objects": workload.s_objects_total,
            "disks": workload.disks,
        },
        "metrics_rounds": ROUNDS,
        "algorithms": {
            name: {
                "wall_ms": medians[name]["off"],
                "wall_ms_metrics_on": medians[name]["on"],
                "metrics_overhead": overhead[name],
                "pass_wall_ms": results_on[name].pass_wall_ms,
                "pass_counts": results_on[name].pass_counts,
                "pair_count": results_on[name].pair_count,
                "checksum_ok": results_on[name].checksum == checksum,
                "used_processes": results_on[name].used_processes,
                "stats_document": stats_paths[name],
            }
            for name in ALGORITHMS
        },
    })

    for name, res in results_on.items():
        assert res.pair_count == workload.r_objects_total
        assert res.checksum == checksum
        assert res.worker_metrics, f"{name}: no per-worker metrics harvested"
        # The acceptance bar: the metrics cost (median paired delta) must
        # not exceed the noise floor — max(5% of the uninstrumented
        # median, an absolute per-worker allowance).  A sub-floor delta
        # in either direction is jitter by construction and passes.
        assert paired_delta_ms[name] <= floor_ms[name], (
            f"{name}: metrics overhead {paired_delta_ms[name]:+.1f} ms "
            f"median paired delta exceeds the {floor_ms[name]:.1f} ms "
            f"noise floor ({medians[name]['off']:.1f} -> "
            f"{medians[name]['on']:.1f} ms)"
        )


def _measure(workload, algorithm, rounds) -> dict:
    """Best-of-N pass walls for one algorithm."""
    pass_walls = []
    result = None
    for _ in range(rounds):
        os.sync()  # quiesce writeback so one round's flushes don't bleed in
        with tempfile.TemporaryDirectory() as root:
            result = run_real_join(
                algorithm, workload, root, use_processes=False,
                collect_metrics=False,
            )
        pass_walls.append(sum(result.pass_wall_ms.values()))
    best = min(pass_walls)
    return {
        "rounds": rounds,
        "pass_ms": best,
        "pass_ms_median": statistics.median(pass_walls),
        "wall_ms": result.wall_ms,
        "pair_count": result.pair_count,
        "checksum": result.checksum,
        "pairs_per_sec": result.pair_count / (best / 1000.0),
    }


def test_ext_real_mmap_kernel_scales(record):
    """The stage kernels' pairs/sec at first-class paper scales."""
    scales = list(KERNEL_SCALES)
    full = config.env_flag("bench_full")
    if full:
        scales.append(FULL_SCALE)

    entry_scales = {}
    rows = []
    for scale in scales:
        workload = generate_workload(
            WorkloadSpec.paper_validation(scale=scale), disks=4
        )
        checksum = expected_checksum(workload)
        rounds = KERNEL_ROUNDS if scale <= 1.0 else 2
        per_algorithm = {}
        for algorithm in ALGORITHMS:
            measured = _measure(workload, algorithm, rounds)
            assert measured["pair_count"] == workload.r_objects_total
            assert measured["checksum"] == checksum, f"{algorithm}@{scale}"
            per_algorithm[algorithm] = measured
            rows.append([
                scale, algorithm, round(measured["pass_ms"], 1),
                round(measured["pairs_per_sec"]),
            ])
        entry_scales[str(scale)] = {
            "workload": {
                "r_objects": workload.r_objects_total,
                "s_objects": workload.s_objects_total,
                "disks": workload.disks,
            },
            "algorithms": per_algorithm,
        }

    text = "\n".join(
        [
            "== Extension: stage kernels at paper scale "
            "(best-of-%d summed pass walls, host wall-clock) ==" % (
                KERNEL_ROUNDS,
            ),
            format_table(
                ["scale", "algorithm", "pass_ms", "pairs_per_sec"], rows
            ),
            "Scale 1.0 is the paper's validation geometry (102,400 "
            "objects).",
        ]
    )
    record("ext_real_mmap_kernels", text)

    _append_bench_run({
        "kind": "kernel-scales",
        "timestamp": time.time(),
        "rounds": KERNEL_ROUNDS,
        "scales": entry_scales,
    })


def test_ext_real_mapping_setup(benchmark, record):
    """A real Figure 1(b): timed mmap setup against mapping size."""

    sizes = (256, 1024, 4096, 16_384)

    def measure():
        samples = []
        with tempfile.TemporaryDirectory() as root:
            for size in sizes:
                path = Path(root) / f"m{size}.seg"
                seg, new_ms = timed_new_map(path, capacity=size)
                seg.close()
                seg, open_ms = timed_open_map(path)
                seg.close()
                delete_ms = timed_delete_map(path)
                samples.append((size, new_ms, open_ms, delete_ms))
        return samples

    samples = benchmark.pedantic(measure, rounds=1, iterations=1)

    text = "\n".join(
        [
            "== Extension: real mmap setup costs — batched-I/O "
            "MappedSegment backend (host wall-clock) ==",
            format_table(
                ["records", "newMap_ms", "openMap_ms", "deleteMap_ms"],
                [list(s) for s in samples],
            ),
            "Host mmap is far faster than 1996 hardware; the shape of "
            "interest is that all three costs stay small and bounded.",
        ]
    )
    record("ext_real_mapping", text)

    for _, new_ms, open_ms, delete_ms in samples:
        assert new_ms >= 0 and open_ms >= 0 and delete_ms >= 0
