"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures``   — regenerate the paper's evaluation figures;
* ``join``      — run one join on the simulator (or the real mmap backend)
  and verify its output;
* ``model``     — print an analytical cost breakdown without simulating;
* ``sweep``       — a model-vs-experiment memory sweep for one algorithm;
* ``calibrate``   — measure and print the machine-dependent functions;
* ``sensitivity`` — rank machine parameters by cost elasticity;
* ``crossover``   — find where the cheaper of two algorithms flips;
* ``report``      — run the full evaluation and emit a markdown report;
* ``stats``       — validate or model-compare an exported stats document;
* ``serve``       — run the always-on multi-tenant join service daemon;
* ``client``      — talk to a running daemon (ping/join/stats/shutdown).

``join --stats-out FILE`` writes the run's observability document (the
versioned JSON schema of ``docs/metrics_schema.md``) for either backend.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import tempfile
from typing import Optional, Sequence

from repro.governor.budget import ON_PRESSURE_MODES, parse_size
from repro.harness.calibrate import (
    calibrated_machine_parameters,
    measure_disk_curves,
    measure_mapping_curves,
)
from repro.harness.experiment import MODEL_FUNCTIONS, run_memory_sweep
from repro.harness.figures import all_figures, figure_1a, figure_1b, figure_5a, figure_5b, figure_5c
from repro.harness.report import format_table, shape_summary
from repro.joins import JoinEnvironment, make_algorithm, verify_pairs
from repro.model import MemoryParameters
from repro.parallel.engine.plans import algorithms as real_algorithms
from repro.workload import (
    DISTRIBUTIONS,
    DistributionError,
    WorkloadSpec,
    generate_workload,
    validate_distribution_args,
)

FIGURE_BUILDERS = {
    "1a": lambda args: figure_1a(),
    "1b": lambda args: figure_1b(),
    "5a": lambda args: figure_5a(scale=args.scale or 0.1),
    "5b": lambda args: figure_5b(scale=args.scale or 0.1),
    "5c": lambda args: figure_5c(scale=args.scale or 0.5),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel pointer-based join algorithms in memory-mapped "
            "environments (ICDE 1996 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument(
        "--figure",
        choices=sorted(FIGURE_BUILDERS),
        help="one figure only (default: all)",
    )
    figures.add_argument(
        "--scale", type=float, default=None,
        help="workload scale (1.0 = the paper's 102,400 objects)",
    )

    join = sub.add_parser("join", help="run one verified join")
    _common_workload_args(join)
    # The union of both backends' registries: the simulator's model
    # functions plus every registered real-backend pass plan;
    # _cmd_join rejects the combinations a backend does not implement.
    join.add_argument(
        "algorithm",
        choices=sorted(set(MODEL_FUNCTIONS) | set(real_algorithms())),
    )
    join.add_argument(
        "--fraction", type=float, default=0.1,
        help="memory grant as a fraction of |R| bytes",
    )
    join.add_argument(
        "--real", action="store_true",
        help="run on the real mmap backend instead of the simulator",
    )
    join.add_argument(
        "--stats-out", default=None, metavar="FILE",
        help="write the run's stats document (docs/metrics_schema.md) here",
    )
    join.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per worker task on the real backend",
    )
    join.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="declare a real-backend worker task dead after this long "
             "and retry it (required to detect crashed pool workers)",
    )
    join.add_argument(
        "--fault-plan", default=None, metavar="JSON",
        help="deterministic fault plan for the real backend: a JSON file "
             "path or an inline JSON object (testing/chaos runs)",
    )
    join.add_argument(
        "--mem-budget", default=None, metavar="BYTES",
        help="real-backend memory budget across all workers (suffixes "
             "K/M/G); arms the resource governor",
    )
    join.add_argument(
        "--disk-budget", default=None, metavar="BYTES",
        help="real-backend disk budget for the whole store (suffixes K/M/G)",
    )
    join.add_argument(
        "--on-pressure", choices=ON_PRESSURE_MODES,
        default="degrade",
        help="what resource pressure does: degrade the plan down the "
             "ladder (default), queue for admission without re-planning, "
             "or fail with a classified error",
    )
    join.add_argument(
        "--store", default=None, metavar="DIR",
        help="real-backend store directory (kept after the run) instead "
             "of a throwaway temporary directory",
    )
    join.add_argument(
        "--resume", action="store_true",
        help="real backend: resume from the store's pass-level checkpoint "
             "manifest (requires --store); completed, checksum-verified "
             "passes are replayed instead of recomputed, and the output "
             "is bit-identical to an uninterrupted run",
    )

    model = sub.add_parser("model", help="print an analytical prediction")
    _common_workload_args(model)
    model.add_argument("algorithm", choices=sorted(MODEL_FUNCTIONS))
    model.add_argument("--fraction", type=float, default=0.1)

    sweep = sub.add_parser("sweep", help="model-vs-experiment memory sweep")
    _common_workload_args(sweep)
    sweep.add_argument("algorithm", choices=sorted(MODEL_FUNCTIONS))
    sweep.add_argument(
        "--fractions", default="0.05,0.1,0.2",
        help="comma-separated memory fractions",
    )

    calibrate = sub.add_parser(
        "calibrate", help="measure the machine-dependent functions"
    )
    calibrate.add_argument(
        "--accesses", type=int, default=600,
        help="disk accesses per band during measurement",
    )

    sensitivity = sub.add_parser(
        "sensitivity", help="rank machine parameters by cost elasticity"
    )
    _common_workload_args(sensitivity)
    sensitivity.add_argument("algorithm", choices=sorted(MODEL_FUNCTIONS))
    sensitivity.add_argument("--fraction", type=float, default=0.1)

    crossover = sub.add_parser(
        "crossover", help="find where the cheaper of two algorithms flips"
    )
    crossover.add_argument("first", choices=sorted(MODEL_FUNCTIONS))
    crossover.add_argument("second", choices=sorted(MODEL_FUNCTIONS))

    workload = sub.add_parser(
        "workload", help="save or inspect a reproducible workload file"
    )
    _common_workload_args(workload)
    workload.add_argument("action", choices=("save", "info"))
    workload.add_argument("path", help="the .npz workload file")

    report = sub.add_parser(
        "report", help="run the full evaluation and emit a markdown report"
    )
    report.add_argument("--scale", type=float, default=None,
                        help="force one scale for every panel")
    report.add_argument("--out", default=None,
                        help="write to a file instead of stdout")
    report.add_argument("--no-comparison", action="store_true",
                        help="skip the algorithm-comparison section")

    scrub = sub.add_parser(
        "scrub", help="payload-checksum verify every segment in a store"
    )
    scrub.add_argument("store", help="store directory (disk*/ subdirs)")
    scrub.add_argument(
        "--disks", type=int, default=None,
        help="disk directories to scan (default: count the disk* subdirs)",
    )
    scrub.add_argument(
        "--remove", action="store_true",
        help="delete segments that fail verification (default: report only)",
    )

    stats = sub.add_parser(
        "stats", help="validate or model-compare an exported stats document"
    )
    stats.add_argument("action", choices=("validate", "compare"))
    stats.add_argument("path", help="a stats JSON document")
    stats.add_argument(
        "--fraction", type=float, default=0.1,
        help="memory fraction for the model side of `compare`",
    )

    serve = sub.add_parser(
        "serve", help="run the always-on multi-tenant join service daemon"
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket path to listen on",
    )
    serve.add_argument(
        "--root", required=True, metavar="DIR",
        help="service root directory (warm stores live under it)",
    )
    serve.add_argument("--disks", type=int, default=4)
    serve.add_argument(
        "--max-concurrent", type=int, default=2,
        help="joins executing at once; more wait in the admission queue",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=8,
        help="admission queue depth; arrivals beyond it are rejected",
    )
    serve.add_argument(
        "--pool-workers", type=int, default=None,
        help="worker pool size (default: --disks)",
    )
    serve.add_argument(
        "--inline", action="store_true",
        help="run kernels inline in request threads — no worker pool "
             "(debugging; serving wants the pool)",
    )
    serve.add_argument(
        "--tenants", default=None, metavar="FILE",
        help="tenant policy JSON (docs/serving.md); default admits "
             "every tenant under one permissive policy",
    )
    serve.add_argument(
        "--stats-out", default=None, metavar="FILE",
        help="write the final service stats document here on shutdown",
    )

    client = sub.add_parser(
        "client", help="talk to a running join service daemon"
    )
    client.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket the daemon listens on",
    )
    client.add_argument("action", choices=("ping", "join", "stats", "shutdown"))
    client.add_argument(
        "algorithm", nargs="?", default=None,
        help="algorithm for `join` (the daemon validates the name)",
    )
    client.add_argument("--tenant", default=None)
    client.add_argument("--scale", type=float, default=None)
    client.add_argument("--seed", type=int, default=None)
    client.add_argument("--disks", type=int, default=None)
    client.add_argument("--priority", type=int, default=None)
    client.add_argument(
        "--stream-pairs", action="store_true",
        help="stream the joined pairs back and verify them: count and "
             "checksum are recomputed from the delivered pairs and must "
             "match the result frame (exit 1 otherwise); not retried",
    )
    client.add_argument(
        "--stats-out", default=None, metavar="FILE",
        help="join: write the run's stats document; stats: write the "
             "service document",
    )
    client.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="socket timeout for the whole conversation",
    )

    return parser


def _common_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--disks", type=int, default=4)
    parser.add_argument("--seed", type=int, default=96)
    parser.add_argument(
        "--distribution", choices=sorted(DISTRIBUTIONS), default="uniform",
        help="pointer distribution of the generated workload",
    )
    parser.add_argument(
        "--dist-arg", action="append", default=[], metavar="KEY=VALUE",
        help="distribution parameter (repeatable), e.g. --dist-arg theta=1 "
             "for zipf; unknown keys are rejected at parse time",
    )


def _distribution_args(args) -> dict:
    """Parse and validate ``--dist-arg`` pairs against ``--distribution``.

    Raises :class:`DistributionError` on a malformed pair or a key the
    chosen distribution does not accept — callers surface it *before*
    any store or workload is materialized.
    """
    parsed: dict = {}
    for item in getattr(args, "dist_arg", None) or []:
        key, sep, raw = item.partition("=")
        if not sep or not key or not raw:
            raise DistributionError(
                f"invalid --dist-arg {item!r} (expected KEY=VALUE)"
            )
        try:
            value: float = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise DistributionError(
                    f"invalid --dist-arg value {raw!r} for {key!r} "
                    "(expected a number)"
                )
        parsed[key] = value
    validate_distribution_args(args.distribution, parsed)
    return parsed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "distribution"):
        # Fail malformed/unknown distribution arguments at parse time,
        # before any workload or store is materialized.
        try:
            args.distribution_args = _distribution_args(args)
        except DistributionError as error:
            parser.error(str(error))
    if args.command == "join":
        _check_join_args(parser, args)
    handler = {
        "figures": _cmd_figures,
        "join": _cmd_join,
        "model": _cmd_model,
        "sweep": _cmd_sweep,
        "calibrate": _cmd_calibrate,
        "sensitivity": _cmd_sensitivity,
        "crossover": _cmd_crossover,
        "report": _cmd_report,
        "workload": _cmd_workload,
        "scrub": _cmd_scrub,
        "stats": _cmd_stats,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }[args.command]
    return handler(args)


def _check_join_args(parser, args) -> None:
    """Refuse ``repro join``'s usage errors before any workload is
    generated, parsing the fault plan and budgets in place."""
    if args.retries < 0:
        parser.error(f"--retries cannot be negative: {args.retries}")
    if args.task_timeout is not None and not args.task_timeout > 0:
        parser.error(f"--task-timeout must be positive: {args.task_timeout}")
    if args.resume and not args.real:
        parser.error("--resume only applies to the real backend (--real)")
    if args.resume and not args.store:
        parser.error(
            "--resume needs --store: the checkpoint manifest lives in "
            "the store a previous run kept"
        )
    try:
        args.mem_budget = parse_size(args.mem_budget) if args.mem_budget else None
        args.disk_budget = (
            parse_size(args.disk_budget) if args.disk_budget else None
        )
    except ValueError as error:
        parser.error(f"invalid budget: {error}")
    if args.fault_plan:
        from repro.parallel import ALGORITHM_TASKS, FaultPlan, FaultPlanError

        try:
            args.fault_plan = FaultPlan.parse(args.fault_plan)
            if args.real and args.algorithm in ALGORITHM_TASKS:
                args.fault_plan.check(args.algorithm, args.disks)
        except (FaultPlanError, OSError) as error:
            parser.error(f"invalid --fault-plan: {error}")


def _workload(args):
    spec = WorkloadSpec.paper_validation(scale=args.scale, seed=args.seed)
    distribution = getattr(args, "distribution", "uniform")
    distribution_args = getattr(args, "distribution_args", {})
    if distribution != "uniform" or distribution_args:
        spec = dataclasses.replace(
            spec,
            distribution=distribution,
            distribution_args=distribution_args,
        )
    return generate_workload(spec, args.disks)


def _cmd_figures(args) -> int:
    if args.figure:
        print(FIGURE_BUILDERS[args.figure](args).render())
        return 0
    for figure in all_figures(scale=args.scale):
        print(figure.render())
        print()
    return 0


def _cmd_join(args) -> int:
    workload = _workload(args)
    if args.real:
        from repro.parallel import REAL_ALGORITHMS, run_real_join

        if args.algorithm not in REAL_ALGORITHMS:
            print(
                "the real backend implements "
                + ", ".join(sorted(REAL_ALGORITHMS)),
                file=sys.stderr,
            )
            return 2
        from repro.governor import ResourceExhausted

        with contextlib.ExitStack() as stack:
            root = args.store or stack.enter_context(
                tempfile.TemporaryDirectory()
            )
            try:
                result = run_real_join(
                    args.algorithm, workload, root,
                    keep_store=bool(args.store),
                    resume=args.resume,
                    retries=args.retries,
                    task_timeout=args.task_timeout,
                    fault_plan=args.fault_plan,
                    mem_budget=args.mem_budget,
                    disk_budget=args.disk_budget,
                    on_pressure=args.on_pressure,
                )
            except ResourceExhausted as error:
                # Classified exhaustion is an orderly refusal, not a crash:
                # its own exit code, and never a raw OSError/MemoryError.
                print(f"resource exhausted: {error.describe()}", file=sys.stderr)
                return 3
        pairs = verify_pairs(workload, result.pairs)
        print(f"{args.algorithm}: {pairs:,} pairs verified, "
              f"{result.wall_ms:,.0f} ms wall clock (real mmap backend)")
        if result.retries_total or result.timeouts_total or result.inline_fallbacks:
            print(
                f"recovery: {result.retries_total} retries, "
                f"{result.timeouts_total} timeouts, "
                f"{result.inline_fallbacks} inline fallbacks"
            )
        resume_doc = result.resume or {}
        if resume_doc.get("requested"):
            if resume_doc.get("resumed"):
                print(
                    f"resume: skipped {resume_doc.get('passes_skipped', 0)} "
                    f"checkpointed pass(es) from a manifest "
                    f"{resume_doc.get('manifest_age_s', 0.0):,.1f} s old"
                )
            else:
                print(
                    "resume: started fresh "
                    f"({resume_doc.get('reason') or 'no usable checkpoint'})"
                )
        integrity_doc = result.integrity or {}
        if integrity_doc.get("scrub_failures"):
            print(
                f"integrity: {integrity_doc['scrub_failures']} segment(s) "
                "failed their payload scrub and were recomputed"
            )
        if result.governor is not None:
            gov = result.governor
            observed = gov["observed"]
            print(
                f"governor: admission={gov['admission']}, "
                f"degradations={gov['degradations_total']} "
                f"({gov['admission_degradations']} at admission, "
                f"{gov['runtime_degradations']} at runtime), "
                f"predicted hwm {gov['predicted']['mem_high_water_bytes']:,} B, "
                f"observed hwm "
                f"{int(observed['worker_mem_high_water_bytes'] or 0):,} B, "
                f"disk peak {observed['disk_peak_bytes']:,} B"
            )
        if args.stats_out:
            from repro.obs import write_stats_document

            write_stats_document(args.stats_out, result.stats_document(workload))
            print(f"stats document written to {args.stats_out}")
        if result.unfired_faults:
            # A fault plan that injected less than it asked for tested
            # less than it claims: a usage error, like a plan the check
            # refuses up front.
            for spec in result.unfired_faults:
                print(
                    f"--fault-plan: no dispatch reached {spec.kind} at "
                    f"{spec.task} partition {spec.partition} attempt "
                    f"{spec.attempt}; it injected nothing",
                    file=sys.stderr,
                )
            return 2
        return 0

    if args.algorithm not in MODEL_FUNCTIONS:
        print(
            f"the simulator implements {', '.join(sorted(MODEL_FUNCTIONS))}; "
            f"run {args.algorithm} with --real",
            file=sys.stderr,
        )
        return 2
    memory = MemoryParameters.from_fractions(
        workload.relation_parameters(), args.fraction
    )
    env = JoinEnvironment(workload, memory)
    result = make_algorithm(args.algorithm).run(env)
    pairs = verify_pairs(workload, result.pairs)
    print(f"{args.algorithm}: {pairs:,} pairs verified, "
          f"{result.elapsed_ms:,.0f} ms simulated")
    print(result.stats.summary())
    if args.stats_out:
        from repro.obs import build_sim_stats_document, write_stats_document

        write_stats_document(
            args.stats_out, build_sim_stats_document(result, workload)
        )
        print(f"stats document written to {args.stats_out}")
    return 0


def _cmd_model(args) -> int:
    workload = _workload(args)
    relations = workload.relation_parameters()
    memory = MemoryParameters.from_fractions(relations, args.fraction)
    machine = calibrated_machine_parameters()
    report = MODEL_FUNCTIONS[args.algorithm](machine, relations, memory)
    print(report.describe())
    return 0


def _cmd_sweep(args) -> int:
    fractions = tuple(float(f) for f in args.fractions.split(","))
    sweep = run_memory_sweep(
        args.algorithm, fractions, scale=args.scale, disks=args.disks,
        seed=args.seed,
    )
    rows = [
        [p.fraction, p.model_ms, p.sim_ms, f"{100 * p.relative_error:+.1f}%"]
        for p in sweep.points
    ]
    print(format_table(
        ["MRproc/|R|", "model_ms", "experiment_ms", "error"], rows
    ))
    print(shape_summary(sweep.model_series, sweep.sim_series))
    return 0


def _cmd_calibrate(args) -> int:
    disk_cal = measure_disk_curves(accesses_per_band=args.accesses)
    print("dttr/dttw (ms per block) vs band size:")
    rows = [
        [band, read, write]
        for (band, read), (_, write) in zip(
            disk_cal.read_samples, disk_cal.write_samples
        )
    ]
    print(format_table(["band_blocks", "dttr_ms", "dttw_ms"], rows))
    map_cal = measure_mapping_curves()
    print("\nmapping setup (ms) vs size:")
    print(format_table(
        ["blocks", "newMap_ms", "openMap_ms", "deleteMap_ms"],
        [list(s) for s in map_cal.samples],
    ))
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.model.sensitivity import (
        parameter_sensitivity,
        render_sensitivities,
    )

    workload = _workload(args)
    relations = workload.relation_parameters()
    memory = MemoryParameters.from_fractions(relations, args.fraction)
    machine = calibrated_machine_parameters()
    sensitivities = parameter_sensitivity(
        MODEL_FUNCTIONS[args.algorithm], machine, relations, memory
    )
    print(render_sensitivities(args.algorithm, sensitivities))
    return 0


def _cmd_crossover(args) -> int:
    from repro.harness.crossover import find_crossovers
    from repro.model import RelationParameters

    machine = calibrated_machine_parameters()
    relations = RelationParameters()  # the paper-scale workload
    crossovers = find_crossovers(args.first, args.second, machine, relations)
    if not crossovers:
        print(
            f"no crossover between {args.first} and {args.second} on the "
            "scanned memory range (0.02 - 0.70)"
        )
        return 0
    for crossover in crossovers:
        print(
            f"below MRproc/|R| = {crossover.fraction:.3f}: "
            f"{crossover.cheaper_below}; above: {crossover.cheaper_above}"
        )
    return 0


def _cmd_workload(args) -> int:
    from repro.workload import load_workload, save_workload

    if args.action == "save":
        workload = _workload(args)
        save_workload(workload, args.path)
        print(
            f"saved {workload.r_objects_total:,} R-objects / "
            f"{workload.s_objects_total:,} S-objects "
            f"({args.distribution}, {args.disks} partitions) to {args.path}"
        )
        return 0

    workload = load_workload(args.path)
    relations = workload.relation_parameters()
    print(
        f"{args.path}: |R| = {relations.r_objects:,}, "
        f"|S| = {relations.s_objects:,}, "
        f"{workload.disks} partitions, "
        f"distribution = {workload.spec.distribution}, "
        f"seed = {workload.spec.seed}, "
        f"measured skew = {relations.skew:.3f}"
    )
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import (
        StatsSchemaError,
        compare_with_model,
        load_stats_document,
        schema_problems,
    )

    try:
        document = load_stats_document(args.path)
    except (OSError, ValueError) as error:
        print(f"{args.path}: cannot read stats document: {error}", file=sys.stderr)
        return 2

    problems = schema_problems(document)
    if problems:
        for problem in problems:
            print(f"{args.path}: {problem}", file=sys.stderr)
        return 1
    if args.action == "validate":
        meta = document["meta"]
        print(
            f"{args.path}: valid stats document "
            f"(schema v{document['schema_version']}, "
            f"{meta['algorithm']} on {meta['backend']}, "
            f"{len(document['per_pass'])} passes)"
        )
        return 0

    # compare: rebuild the model prediction from the document's own meta.
    from repro.model import RelationParameters

    meta = document["meta"]
    relations = RelationParameters(
        r_objects=meta.get("r_objects") or 102_400,
        s_objects=meta.get("s_objects") or 102_400,
    )
    memory = MemoryParameters.from_fractions(relations, args.fraction)
    machine = calibrated_machine_parameters()
    try:
        report = MODEL_FUNCTIONS[meta["algorithm"]](machine, relations, memory)
        comparison = compare_with_model(document, report)
    except (KeyError, StatsSchemaError) as error:
        print(f"{args.path}: cannot compare: {error}", file=sys.stderr)
        return 1
    print(comparison.describe())
    return 0


def _cmd_scrub(args) -> int:
    from pathlib import Path

    from repro.storage.store import Store, disk_count

    root = Path(args.store)
    if not root.is_dir():
        print(f"not a store directory: {root}", file=sys.stderr)
        return 2
    disks = args.disks if args.disks is not None else disk_count(root)
    if disks < 1:
        print(f"no disk* directories under {root}", file=sys.stderr)
        return 2
    report = Store(root, disks).scrub(remove=args.remove)
    print(
        f"scrubbed {root} ({disks} disks): {report['scanned']} segments, "
        f"{report['verified']} verified, {len(report['failed'])} failed"
    )
    for failure in report["failed"]:
        print(f"  CORRUPT {failure['path']}: {failure['problem']}")
    for removed in report["removed"]:
        print(f"  removed {removed}")
    return 1 if report["failed"] else 0


def _cmd_serve(args) -> int:
    from repro.service import (
        JoinService,
        ServiceConfig,
        ServiceError,
        TenantConfig,
        TenantError,
    )

    try:
        tenants = (
            TenantConfig.load(args.tenants)
            if args.tenants
            else TenantConfig.open_default()
        )
    except TenantError as error:
        print(f"invalid --tenants: {error}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        root=args.root,
        socket_path=args.socket,
        disks=args.disks,
        max_concurrent=args.max_concurrent,
        queue_limit=args.queue_limit,
        pool_workers=args.pool_workers,
        use_processes=not args.inline,
    )
    service = JoinService(config, tenants)
    try:
        service.start()
    except ServiceError as error:
        print(f"cannot start join service: {error}", file=sys.stderr)
        return 2
    # SIGTERM/SIGINT begin a graceful drain: stop accepting, let every
    # in-flight request deliver its terminal frame, then exit cleanly
    # (serve_forever unblocks and close() joins the request threads).
    def _drain(signum, frame):
        print(
            f"signal {signum}: draining in-flight requests, then exiting",
            flush=True,
        )
        service.request_shutdown()

    import signal as _signal

    _signal.signal(_signal.SIGTERM, _drain)
    _signal.signal(_signal.SIGINT, _drain)
    sweep = service.startup_sweep
    print(
        f"join service on {args.socket} "
        f"(root {args.root}, {args.disks} disks, "
        f"{args.max_concurrent} concurrent, queue {args.queue_limit}); "
        f"startup sweep removed {sweep['seg_tmp']} tmp segments; "
        f"scrub verified {sweep['scrubbed']} warm segments, "
        f"removed {sweep['corrupt']} corrupt, evicted {sweep['evicted']}",
        flush=True,
    )
    if service.interrupted_requests:
        print(
            f"journal holds {len(service.interrupted_requests)} interrupted "
            "request(s); their retries will resume from checkpoints",
            flush=True,
        )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    document = service.stats_document()
    latency = document["service"]["latency_ms"]
    print(
        f"served {document['service']['requests_total']} requests; "
        f"latency p50 {latency['p50']:,.1f} ms, p99 {latency['p99']:,.1f} ms"
    )
    if args.stats_out:
        from repro.obs import write_stats_document

        write_stats_document(args.stats_out, document)
        print(f"service stats document written to {args.stats_out}")
    return 0


def _cmd_client(args) -> int:
    from repro.service import ClientError, JoinServiceClient

    if args.action == "join" and not args.algorithm:
        print("client join needs an algorithm", file=sys.stderr)
        return 2
    try:
        with JoinServiceClient(args.socket, timeout=args.timeout) as client:
            if args.action == "ping":
                pong = client.ping()
                print(
                    f"daemon up {pong['uptime_s']:,.1f}s, serving "
                    + ", ".join(pong["algorithms"])
                )
                return 0
            if args.action == "shutdown":
                client.shutdown()
                print("daemon asked to shut down")
                return 0
            if args.action == "stats":
                document = client.stats()
                service = document["service"]
                latency = service["latency_ms"]
                print(
                    f"{service['requests_total']} requests, "
                    f"{service['active_requests']} active, "
                    f"queue depth {service['queue_depth']}; "
                    f"latency p50 {latency['p50']:,.1f} ms, "
                    f"p99 {latency['p99']:,.1f} ms"
                )
                for name, entry in sorted(service["tenants"].items()):
                    print(
                        f"  tenant {name}: {entry['admitted']} admitted, "
                        f"{entry['queued']} queued, "
                        f"{entry['rejected']} rejected, "
                        f"{entry['degraded']} degraded"
                    )
                if args.stats_out:
                    from repro.obs import write_stats_document

                    write_stats_document(args.stats_out, document)
                    print(f"service stats document written to {args.stats_out}")
                return 0
            tally = _StreamTally() if args.stream_pairs else None
            reply = client.join(
                args.algorithm,
                tenant=args.tenant,
                scale=args.scale,
                seed=args.seed,
                disks=args.disks,
                priority=args.priority,
                stream_pairs=args.stream_pairs,
                with_stats=bool(args.stats_out),
                # Tally the streamed pairs without holding them all.  A
                # retried attempt would re-stream into the same tally, so
                # a verifying stream gets exactly one attempt.
                on_pairs=tally,
                **({"retries": 0} if tally is not None else {}),
            )
    except ClientError as error:
        print(f"join service: {error}", file=sys.stderr)
        return 3 if error.code in ("rejected", "exhausted") else 1
    notes = ["warm store"] if reply.reused_store else []
    if reply.admission:
        notes.append(f"admission {reply.admission}")
    line = (
        f"{reply.algorithm} for tenant {reply.tenant}: "
        f"{reply.pair_count:,} pairs, checksum {reply.checksum}, "
        f"{reply.wall_ms:,.0f} ms join / {reply.request_ms:,.0f} ms request"
    )
    print(line + (f" ({', '.join(notes)})" if notes else ""))
    if tally is not None:
        print(
            f"streamed {reply.streamed_pairs:,} pairs in "
            f"{reply.stream_ms:,.1f} ms; received {tally.count:,} pairs, "
            f"checksum {tally.checksum}"
        )
        if (tally.count, tally.checksum) != (reply.pair_count, reply.checksum):
            print(
                f"join service: delivered pairs do not match the result "
                f"frame ({reply.pair_count:,} pairs, checksum "
                f"{reply.checksum})",
                file=sys.stderr,
            )
            return 1
    if args.stats_out and reply.stats_document is not None:
        from repro.obs import write_stats_document

        write_stats_document(args.stats_out, reply.stats_document)
        print(f"stats document written to {args.stats_out}")
    return 0


class _StreamTally:
    """Counts and checksums delivered pair batches like the result frame."""

    def __init__(self) -> None:
        self.count = 0
        self.checksum = 0

    def __call__(self, batch) -> None:
        self.count += len(batch)
        self.checksum = (self.checksum + sum(
            rid * 1_000_003 + sid * 7919 + s_value
            for rid, sid, _r_payload, s_value in batch
        )) % (1 << 61)


def _cmd_report(args) -> int:
    from repro.harness.reportgen import ReportOptions, generate_report

    options = ReportOptions(
        include_comparison=not args.no_comparison,
    )
    if args.scale is not None:
        options = ReportOptions(
            scale_5a=args.scale,
            scale_5b=args.scale,
            scale_5c=args.scale,
            include_comparison=not args.no_comparison,
        )
    text = generate_report(options)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
