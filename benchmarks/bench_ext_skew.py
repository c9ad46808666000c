"""Extension: skew sensitivity (paper §4 / §5.3 vs §6.3).

The unsynchronized nested loops absorbs partition skew through extra
parallelism, while the synchronized sort-merge and Grace are gated by the
most loaded partition every pass.  This bench joins a uniform workload and
a partition-skewed workload of identical size and reports the slowdown of
each algorithm.

On the real backend every pass runs one task per partition, as the
paper's model does; ``results/ext_rebalance_audit.txt`` records the
measurement that retired the per-partition task splitter (and
``results/BENCH_skew.json`` its earlier task-ratio matrix).
"""

from conftest import bench_scale

from repro.harness.experiment import run_memory_sweep
from repro.harness.report import format_table
from repro.workload import WorkloadSpec, generate_workload

FRACTION = 0.15


def make_workloads(scale):
    uniform = generate_workload(
        WorkloadSpec.paper_validation(scale=scale), disks=4
    )
    objects = uniform.spec.r_objects
    skewed = generate_workload(
        WorkloadSpec(
            r_objects=objects,
            s_objects=objects,
            distribution="partition_hot",
            distribution_args={"hot_fraction": 0.6, "hot_span": 0.25},
            seed=96,
        ),
        disks=4,
    )
    return uniform, skewed


def test_ext_skew_sensitivity(benchmark, bench_config, bench_machine, record):
    scale = bench_scale(0.08)
    uniform, skewed = make_workloads(scale)

    def run_all():
        out = {}
        for label, workload in (("uniform", uniform), ("skewed", skewed)):
            for name in ("nested-loops", "sort-merge", "grace"):
                sweep = run_memory_sweep(
                    name,
                    (FRACTION,),
                    machine=bench_machine,
                    sim_config=bench_config,
                    workload=workload,
                )
                out[(label, name)] = sweep.points[0].sim_ms
        return out

    elapsed = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name in ("nested-loops", "sort-merge", "grace"):
        u = elapsed[("uniform", name)]
        s = elapsed[("skewed", name)]
        rows.append([name, u, s, s / u])
    text = "\n".join(
        [
            "== Extension: skew sensitivity "
            f"(uniform skew={uniform.measured_skew():.2f}, "
            f"skewed={skewed.measured_skew():.2f}) ==",
            format_table(["algorithm", "uniform_ms", "skewed_ms", "ratio"], rows),
        ]
    )
    record("ext_skew", text)

    # Skew hurts everyone a little; the skewed run is never faster by much.
    for name in ("nested-loops", "sort-merge", "grace"):
        assert elapsed[("skewed", name)] > 0.9 * elapsed[("uniform", name)]
