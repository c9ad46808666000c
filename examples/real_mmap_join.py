#!/usr/bin/env python3
"""Run the pointer-based joins on a *real* mmap single-level store.

This exercises ``repro.storage`` (file-backed mapped segments with exact
positioning — no pointer swizzling) and ``repro.parallel`` (one OS process
per partition, the paper's Rproc design; CPython's GIL makes threads a
non-starter for this, so parallelism is process-level).

Usage::

    python examples/real_mmap_join.py [scale]

``scale`` defaults to 0.05.  All joins are verified against the oracle.
"""

import sys
import tempfile
from pathlib import Path

from repro.harness.report import format_table
from repro.joins import verify_pairs
from repro.parallel import REAL_ALGORITHMS, run_real_join
from repro.storage import timed_delete_map, timed_new_map, timed_open_map
from repro.workload import WorkloadSpec, generate_workload


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=scale), disks=4
    )
    print(
        f"Workload: {workload.r_objects_total:,} R-objects, "
        f"{workload.s_objects_total:,} S-objects, 4 partitions, "
        "one worker process each\n"
    )

    rows = []
    with tempfile.TemporaryDirectory() as root:
        for name in sorted(REAL_ALGORITHMS):
            result = run_real_join(
                name, workload, str(Path(root) / name), use_processes=True
            )
            pairs = verify_pairs(workload, result.pairs)
            passes = ", ".join(
                f"{label} {ms:,.0f} ms" for label, ms in result.pass_wall_ms.items()
            )
            rows.append([name, result.wall_ms, pairs, passes])
    print("== Real mmap joins (host wall-clock) ==")
    print(format_table(["algorithm", "wall_ms", "pairs", "per-pass"], rows))

    print("\n== Real mapping setup costs (the paper's Figure 1b, on this host) ==")
    map_rows = []
    with tempfile.TemporaryDirectory() as root:
        for records in (1_000, 10_000, 100_000):
            path = Path(root) / f"m{records}.seg"
            seg, new_ms = timed_new_map(path, capacity=records)
            seg.close()
            seg, open_ms = timed_open_map(path)
            seg.close()
            delete_ms = timed_delete_map(path)
            map_rows.append([records, new_ms, open_ms, delete_ms])
    print(
        format_table(
            ["records", "newMap_ms", "openMap_ms", "deleteMap_ms"], map_rows
        )
    )
    print(
        "\nAll joins verified. Note how 30 years of hardware turned the "
        "paper's 12-second newMap into fractions of a millisecond."
    )


if __name__ == "__main__":
    main()
