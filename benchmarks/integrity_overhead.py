"""CI gate: payload-checksum verification overhead at scale 0.2.

Standalone (no pytest):
``PYTHONPATH=src python benchmarks/integrity_overhead.py``.

Runs the four joins with integrity fully on (CRC write at publish +
verify on open, the default) and fully off (``REPRO_INTEGRITY=off``,
the documented baseline knob), asserts the two configurations agree
bit-for-bit, and gates the aggregate wall-time overhead of checksumming
at ``MAX_OVERHEAD`` (the acceptance budget is 5%).  Per-mode cost is the
best (minimum) summed join-pass wall over the rounds — I/O noise is
strictly additive, so the minimum isolates the deterministic work, which
is exactly where the CRC cost lives.

The gate exists to keep integrity *cheap enough to leave on*: a CRC
implementation regression (chunking gone wrong, the verified-cache
dropping hits) shows up here as an aggregate overhead far beyond the
single digits.  The report names the CRC-32 engine the run hashed with.

It runs inline, in one process, so the verified-file memo serves every
re-open of a segment this process wrote: it prices the write-side CRC
and scrub-free opens, not the cross-process verification a pool pays
(``bench/run.py``'s ``cpu_s`` on ``warm_hot`` shows that).
"""

import json
import os
import sys
import tempfile

from repro import config
from repro.parallel import run_real_join
from repro.storage import segment as segment_module
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")
SCALE = 0.2
ROUNDS = 3

#: Aggregate (all four algorithms) wall overhead of checksum write+verify
#: over the integrity-off baseline.  The acceptance budget.
MAX_OVERHEAD = 0.05


def measure(workload, algorithm, integrity_on: bool):
    integrity_env = config.knob("integrity").env
    if integrity_on:
        os.environ.pop(integrity_env, None)
    else:
        os.environ[integrity_env] = "off"
    # The env knob is read per-process; reset the in-process overrides
    # so this (single-process, inline) bench follows it too.
    segment_module.configure_integrity(
        write=integrity_on, verify=integrity_on
    )
    try:
        pass_walls = []
        result = None
        for _ in range(ROUNDS):
            with tempfile.TemporaryDirectory() as root:
                result = run_real_join(
                    algorithm, workload, root, use_processes=False,
                    collect_metrics=False,
                )
            pass_walls.append(sum(result.pass_wall_ms.values()))
        best = min(pass_walls)
        return {
            "pass_ms": best,
            "pair_count": result.pair_count,
            "checksum": result.checksum,
        }
    finally:
        os.environ.pop(integrity_env, None)
        segment_module.configure_integrity(write=None, verify=None)


def main() -> int:
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=SCALE), disks=4
    )
    totals = {"off": 0.0, "on": 0.0}
    report = {
        "crc_engine": segment_module.CRC_ENGINE,
        "scale": SCALE,
        "rounds": ROUNDS,
        "max_overhead": MAX_OVERHEAD,
        "algorithms": {},
    }
    failures = []
    for algorithm in ALGORITHMS:
        baseline = measure(workload, algorithm, integrity_on=False)
        verified = measure(workload, algorithm, integrity_on=True)
        if verified["checksum"] != baseline["checksum"] or (
            verified["pair_count"] != baseline["pair_count"]
        ):
            failures.append(
                f"{algorithm}: integrity on/off disagree "
                f"(off {baseline['pair_count']}/{baseline['checksum']}, "
                f"on {verified['pair_count']}/{verified['checksum']})"
            )
        overhead = verified["pass_ms"] / baseline["pass_ms"] - 1.0
        totals["off"] += baseline["pass_ms"]
        totals["on"] += verified["pass_ms"]
        report["algorithms"][algorithm] = {
            "baseline": baseline,
            "verified": verified,
            "overhead": overhead,
        }
        print(
            f"{algorithm:>14}: off {baseline['pass_ms']:7.1f} ms | "
            f"on {verified['pass_ms']:7.1f} ms | {overhead:+6.1%}"
        )

    aggregate = totals["on"] / totals["off"] - 1.0
    report["aggregate_overhead"] = aggregate
    print(
        f"{'aggregate':>14}: {aggregate:+.1%} (budget {MAX_OVERHEAD:.0%}, "
        f"{segment_module.CRC_ENGINE} CRC-32)"
    )
    if aggregate > MAX_OVERHEAD:
        failures.append(
            f"checksum verification costs {aggregate:.1%} aggregate wall "
            f"time, over the {MAX_OVERHEAD:.0%} budget"
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
