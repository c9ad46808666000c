"""The versioned JSON stats document both backends export.

One run — real-mmap or simulated — becomes one self-describing document:
``schema_version`` plus ``meta`` / ``totals`` / ``per_pass`` / ``per_worker``
/ ``per_segment`` / ``spans`` sections.  The full schema, with each
metric's units and the paper cost term it decomposes, is documented in
``docs/metrics_schema.md``; :func:`validate_stats_document` enforces the
structural contract (CI runs it against a freshly emitted document).

Nothing here imports the storage, sim or parallel layers: documents are
built from duck-typed result objects and registry snapshots, so the
exporter works identically for both backends.
"""

from __future__ import annotations

import json
import mmap
import os
from typing import Dict, List, Mapping, Optional

from repro.obs.registry import MetricsRegistry, parse_metric_key

#: Version 2 added ``totals.governor`` (resource-governor decision record)
#: and the per-worker memory gauges.  Version 3 reflects the pass-pipeline
#: engine: real-backend ``per_pass`` entries carry the stage ``kind``
#: (scan-join / partition / sort-run / merge / probe — optional, the
#: simulator has no stage taxonomy), per-pass labels come from the
#: registered pass plans (sort-merge is now partition / sort-runs /
#: merge-join), and stage spans are named ``stage`` rather than ``pass``.
#: Version 4 adds the optional top-level ``service`` section (the join
#: daemon's serving totals: request-latency percentiles, queue depth,
#: per-tenant admission counts, the startup orphan sweep) plus the
#: ``service.*`` counter namespace; join-run documents are otherwise
#: unchanged from v3.  Still within v4 (optional, so old documents stay
#: valid): ``meta.skew`` reports the workload's measured partition skew.
#: Version 5 adds two durability sections to real-backend totals:
#: ``totals.integrity`` (segments fully scrubbed, scrub failures, and
#: payload-checksum verification counts from the ``storage.integrity.*``
#: counter family) and ``totals.resume`` (whether the run replayed a
#: pass-level checkpoint manifest, how many passes it skipped, the
#: manifest's age, and why a requested resume was declined).  Both are
#: optional — the simulator and the service document carry neither.
#: Version 6 drops ``meta.kernel_mode`` and ``governor.plan.kernel_mode``:
#: there is one kernel implementation, so neither could vary.
#: Version 7 drops the per-pass task-split block and its plan knob: every
#: stage runs one task per partition, so ``per_worker`` ids are the
#: partitions ``0..disks-1``.
SCHEMA_VERSION = 7
DOCUMENT_KIND = "repro-join-stats"

#: Spill segment kinds — temporaries redistributed between partitions, as
#: opposed to base relations (R, S) and join output (PAIRS).
SPILL_KINDS = frozenset({"RP", "RS", "RUN", "MRG", "BS"})

_REQUIRED_SECTIONS = {
    "meta": dict,
    "totals": dict,
    "per_pass": dict,
    "per_worker": dict,
    "per_segment": dict,
    "spans": list,
}

_SEGMENT_FIELDS = (
    ("created", "storage.map.new"),
    ("opened", "storage.map.open"),
    ("deleted", "storage.map.delete"),
    ("flushes", "storage.flush"),
    ("read_records", "storage.read.records"),
    ("read_bytes", "storage.read.bytes"),
    ("deref_records", "storage.deref.records"),
    ("deref_bytes", "storage.deref.bytes"),
    ("write_records", "storage.write.records"),
    ("write_bytes", "storage.write.bytes"),
)


class StatsSchemaError(ValueError):
    """An exported stats document violates the schema contract."""


# --------------------------------------------------------------- validation

def schema_problems(document: object) -> List[str]:
    """Every way ``document`` breaks the schema; empty when valid."""
    problems: List[str] = []
    if not isinstance(document, Mapping):
        return [f"document is {type(document).__name__}, expected an object"]
    version = document.get("schema_version")
    if version is None:
        problems.append("missing schema_version")
    elif version != SCHEMA_VERSION:
        problems.append(
            f"unknown schema_version {version!r} (this build reads {SCHEMA_VERSION})"
        )
    if document.get("kind") != DOCUMENT_KIND:
        problems.append(
            f"kind is {document.get('kind')!r}, expected {DOCUMENT_KIND!r}"
        )
    for section, expected_type in _REQUIRED_SECTIONS.items():
        value = document.get(section)
        if not isinstance(value, expected_type):
            problems.append(
                f"section {section!r} is "
                f"{type(value).__name__ if value is not None else 'missing'}, "
                f"expected {expected_type.__name__}"
            )
    if problems:
        return problems

    meta = document["meta"]
    for field in ("algorithm", "backend"):
        if not isinstance(meta.get(field), str):
            problems.append(f"meta.{field} must be a string")
    totals = document["totals"]
    if not isinstance(totals.get("wall_ms"), (int, float)):
        problems.append("totals.wall_ms must be a number")
    for mapping_name in ("counters", "gauges"):
        mapping = totals.get(mapping_name)
        if not isinstance(mapping, dict):
            problems.append(f"totals.{mapping_name} must be an object")
        elif any(not isinstance(v, (int, float)) for v in mapping.values()):
            problems.append(f"totals.{mapping_name} values must be numbers")
    recovery = totals.get("recovery")
    if recovery is not None:
        # Optional (the simulator has no failure model); when present it
        # must be a flat object of numeric recovery totals.
        if not isinstance(recovery, dict):
            problems.append("totals.recovery must be an object")
        elif any(not isinstance(v, (int, float)) for v in recovery.values()):
            problems.append("totals.recovery values must be numbers")
    unfired = totals.get("unfired_faults")
    if unfired is not None and (
        not isinstance(unfired, list)
        or any(not isinstance(spec, dict) for spec in unfired)
    ):
        # Optional (real backend): the fault specs no dispatch matched.
        problems.append("totals.unfired_faults must be a list of objects")
    problems.extend(_governor_problems(totals.get("governor")))
    problems.extend(_integrity_problems(totals.get("integrity")))
    problems.extend(_resume_problems(totals.get("resume")))
    problems.extend(_service_problems(document.get("service")))
    for label, entry in document["per_pass"].items():
        if not isinstance(entry, dict) or not isinstance(
            entry.get("wall_ms"), (int, float)
        ):
            problems.append(f"per_pass[{label!r}] needs a numeric wall_ms")
        elif "kind" in entry and not isinstance(entry["kind"], str):
            # Optional: the real backend stamps each pass with its stage
            # kind; the simulator has no stage taxonomy.
            problems.append(f"per_pass[{label!r}].kind must be a string")
    for label, workers in document["per_worker"].items():
        if label not in document["per_pass"]:
            problems.append(f"per_worker[{label!r}] has no matching per_pass entry")
            continue
        if not isinstance(workers, dict):
            problems.append(f"per_worker[{label!r}] must be an object")
            continue
        for worker_id, metrics in workers.items():
            if not isinstance(metrics, dict) or not isinstance(
                metrics.get("wall_ms"), (int, float)
            ):
                problems.append(
                    f"per_worker[{label!r}][{worker_id!r}] needs a numeric wall_ms"
                )
    for kind, entry in document["per_segment"].items():
        if not isinstance(entry, dict):
            problems.append(f"per_segment[{kind!r}] must be an object")
    for i, record in enumerate(document["spans"]):
        if not isinstance(record, dict) or "name" not in record or "ms" not in record:
            problems.append(f"spans[{i}] needs name and ms fields")
    return problems


def _governor_problems(governor: object) -> List[str]:
    """Schema problems in an optional ``totals.governor`` section.

    Absent on ungoverned runs and on the simulator; when present it is the
    governor's full decision record (see ``docs/metrics_schema.md``).
    """
    if governor is None:
        return []
    if not isinstance(governor, Mapping):
        return ["totals.governor must be an object"]
    problems: List[str] = []
    if not isinstance(governor.get("admission"), str):
        problems.append("totals.governor.admission must be a string")
    for field in ("degradations_total", "admission_degradations",
                  "runtime_degradations"):
        if not isinstance(governor.get(field), (int, float)):
            problems.append(f"totals.governor.{field} must be a number")
    for field in ("predicted", "observed", "resource_errors", "budgets",
                  "plan"):
        if not isinstance(governor.get(field), Mapping):
            problems.append(f"totals.governor.{field} must be an object")
    # Optional: documents written before the ladder reported its rungs.
    rungs = governor.get("rungs", [])
    if not isinstance(rungs, list) or not all(
        isinstance(rung, Mapping)
        and isinstance(rung.get("knob"), str)
        and {"from", "to"} <= set(rung)
        and isinstance(rung.get("predicted_high_water_bytes"), (int, float))
        for rung in rungs
    ):
        problems.append(
            "totals.governor.rungs must be a list of "
            "{knob, from, to, predicted_high_water_bytes} objects"
        )
    return problems


def _integrity_problems(integrity: object) -> List[str]:
    """Schema problems in an optional ``totals.integrity`` section.

    Present on real-backend documents (v5+): the run's payload-checksum
    accounting — segments fully scrubbed during resume validation, scrub
    failures encountered, and how many open-time payload verifications
    ran (split into fresh hashes and memoized re-opens).
    """
    if integrity is None:
        return []
    if not isinstance(integrity, Mapping):
        return ["totals.integrity must be an object"]
    problems: List[str] = []
    for field in ("segments_scrubbed", "scrub_failures",
                  "checksum_verified", "checksum_cached"):
        if not isinstance(integrity.get(field), (int, float)):
            problems.append(f"totals.integrity.{field} must be a number")
    return problems


def _resume_problems(resume: object) -> List[str]:
    """Schema problems in an optional ``totals.resume`` section.

    Present on real-backend documents (v5+): whether the run was asked
    to resume from a pass-level checkpoint manifest, whether it did, how
    many completed passes the manifest let it skip, the manifest's age,
    and — for declined or truncated resumes — the reason.
    """
    if resume is None:
        return []
    if not isinstance(resume, Mapping):
        return ["totals.resume must be an object"]
    problems: List[str] = []
    for field in ("requested", "resumed"):
        if not isinstance(resume.get(field), bool):
            problems.append(f"totals.resume.{field} must be a boolean")
    if not isinstance(resume.get("passes_skipped"), (int, float)):
        problems.append("totals.resume.passes_skipped must be a number")
    age = resume.get("manifest_age_s")
    if age is not None and not isinstance(age, (int, float)):
        problems.append("totals.resume.manifest_age_s must be a number or null")
    reason = resume.get("reason")
    if reason is not None and not isinstance(reason, str):
        problems.append("totals.resume.reason must be a string or null")
    return problems


def _service_problems(service: object) -> List[str]:
    """Schema problems in an optional top-level ``service`` section.

    Present only on documents exported by the join-service daemon; when
    present it must carry the serving totals the operator guide documents
    (``docs/serving.md``): latency percentiles, queue state, per-tenant
    admission counts, and the startup sweep record.
    """
    if service is None:
        return []
    if not isinstance(service, Mapping):
        return ["service must be an object"]
    problems: List[str] = []
    for field in ("requests_total", "queue_depth", "active_requests"):
        if not isinstance(service.get(field), (int, float)):
            problems.append(f"service.{field} must be a number")
    latency = service.get("latency_ms")
    if not isinstance(latency, Mapping):
        problems.append("service.latency_ms must be an object")
    else:
        for field in ("p50", "p99", "mean", "max", "count"):
            if not isinstance(latency.get(field), (int, float)):
                problems.append(f"service.latency_ms.{field} must be a number")
    tenants = service.get("tenants")
    if not isinstance(tenants, Mapping):
        problems.append("service.tenants must be an object")
    else:
        for name, entry in tenants.items():
            if not isinstance(entry, Mapping):
                problems.append(f"service.tenants[{name!r}] must be an object")
                continue
            for field in ("admitted", "queued", "rejected", "degraded"):
                if not isinstance(entry.get(field), (int, float)):
                    problems.append(
                        f"service.tenants[{name!r}].{field} must be a number"
                    )
    sweep = service.get("startup_sweep")
    if sweep is not None and (
        not isinstance(sweep, Mapping)
        or any(not isinstance(v, (int, float)) for v in sweep.values())
    ):
        problems.append(
            "service.startup_sweep must be an object of numeric counts"
        )
    return problems


def validate_stats_document(document: object) -> None:
    """Raise :class:`StatsSchemaError` unless ``document`` is schema-valid."""
    problems = schema_problems(document)
    if problems:
        raise StatsSchemaError(
            "invalid stats document: " + "; ".join(problems)
        )


# ----------------------------------------------------------------- building

def _pages_estimate(bytes_moved: float) -> int:
    """Bytes → whole OS pages: the document's page-touch *estimate*.

    An estimate because sequential batches touch each page once while
    scattered dereferences may revisit pages; exact residency would need a
    per-access page set, which costs more than the work being measured.
    """
    return int(-(-bytes_moved // mmap.PAGESIZE)) if bytes_moved > 0 else 0


def _worker_summary(snapshot: Mapping) -> dict:
    """Derive the per-worker headline fields from a registry snapshot."""
    registry = MetricsRegistry.from_snapshot(snapshot)
    by_name: Dict[str, float] = {}
    spill_bytes = 0.0
    for key, value in registry.counters.items():
        name, labels = parse_metric_key(key)
        by_name[name] = by_name.get(name, 0) + value
        if name == "storage.write.bytes" and labels.get("kind") in SPILL_KINDS:
            spill_bytes += value
    gauges_by_name: Dict[str, float] = {}
    for key, value in registry.gauges.items():
        name, _ = parse_metric_key(key)
        gauges_by_name[name] = max(gauges_by_name.get(name, value), value)
    bytes_read = by_name.get("storage.read.bytes", 0) + by_name.get(
        "storage.deref.bytes", 0
    )
    bytes_written = by_name.get("storage.write.bytes", 0)
    return {
        "wall_ms": gauges_by_name.get("worker.wall_ms", 0.0),
        "mem_high_water_bytes": int(
            gauges_by_name.get("worker.mem_high_water_bytes", 0)
        ),
        "mapped_peak_bytes": int(
            gauges_by_name.get("worker.mapped_peak_bytes", 0)
        ),
        "rss_max_bytes": int(gauges_by_name.get("worker.rss_max_bytes", 0)),
        "records_read": int(
            by_name.get("storage.read.records", 0)
            + by_name.get("storage.deref.records", 0)
        ),
        "records_written": int(by_name.get("storage.write.records", 0)),
        "bytes_read": int(bytes_read),
        "bytes_written": int(bytes_written),
        "spill_bytes": int(spill_bytes),
        "batches": int(
            by_name.get("storage.read.batches", 0)
            + by_name.get("storage.write.batches", 0)
        ),
        "pairs": int(by_name.get("worker.pairs", 0)),
        "minflt": int(by_name.get("worker.minflt", 0)),
        "majflt": int(by_name.get("worker.majflt", 0)),
        "pages_touched_est": _pages_estimate(bytes_read + bytes_written),
        "counters": dict(registry.counters),
    }


def _segment_section(registry: MetricsRegistry) -> Dict[str, dict]:
    """Aggregate storage counters by segment kind (R, S, RP, PAIRS, ...)."""
    section: Dict[str, dict] = {}
    for key, value in registry.counters.items():
        name, labels = parse_metric_key(key)
        kind = labels.get("kind")
        if kind is None or not name.startswith("storage."):
            continue
        entry = section.setdefault(kind, {field: 0 for field, _ in _SEGMENT_FIELDS})
        for field, counter_name in _SEGMENT_FIELDS:
            if name == counter_name:
                entry[field] += int(value)
    for entry in section.values():
        entry["pages_touched_est"] = _pages_estimate(
            entry["read_bytes"] + entry["deref_bytes"] + entry["write_bytes"]
        )
    return section


def build_real_stats_document(result, workload=None) -> dict:
    """The stats document for one :class:`~repro.parallel.runner.RealJoinResult`.

    ``result.worker_metrics`` (per pass → per partition registry snapshots)
    and ``result.driver_metrics`` are merged here into the totals and
    per-segment sections; per-pass counters are the merge of that pass's
    workers.
    """
    worker_metrics = getattr(result, "worker_metrics", None) or {}
    driver_metrics = getattr(result, "driver_metrics", None)

    pass_kinds = getattr(result, "pass_kinds", None) or {}
    per_pass: Dict[str, dict] = {}
    per_worker: Dict[str, dict] = {}
    all_parts: List[Mapping] = []
    for label, wall_ms in result.pass_wall_ms.items():
        snapshots = worker_metrics.get(label, {})
        pass_registry = MetricsRegistry.merged(snapshots.values())
        all_parts.extend(snapshots.values())
        per_pass[label] = {
            "wall_ms": wall_ms,
            "records": result.pass_counts.get(label),
            "checksum": result.pass_checksums.get(label),
            "workers": sorted(snapshots),
            "counters": dict(pass_registry.counters),
            **(
                {"kind": pass_kinds[label]} if label in pass_kinds else {}
            ),
            # The pass's workers' page faults, summed; absent when the
            # pass ran without metrics (nothing counted them).
            **(
                {
                    flt: int(sum(
                        pass_registry.counters_named(f"worker.{flt}").values()
                    ))
                    for flt in ("minflt", "majflt")
                }
                if snapshots else {}
            ),
        }
        per_worker[label] = {
            str(slot): _worker_summary(snapshot)
            for slot, snapshot in sorted(snapshots.items())
        }

    totals_registry = MetricsRegistry.merged(all_parts)
    if driver_metrics:
        totals_registry.merge(driver_metrics)

    integrity = getattr(result, "integrity", None) or {}
    resume = getattr(result, "resume", None) or {}
    integrity_doc = {
        "segments_scrubbed": int(integrity.get("segments_scrubbed", 0)),
        "scrub_failures": int(integrity.get("scrub_failures", 0)),
        "checksum_verified": int(sum(
            totals_registry.counters_named("storage.integrity.verify").values()
        )),
        "checksum_cached": int(sum(
            totals_registry.counters_named("storage.integrity.cached").values()
        )),
    }
    resume_doc = {
        "requested": bool(resume.get("requested", False)),
        "resumed": bool(resume.get("resumed", False)),
        "passes_skipped": int(resume.get("passes_skipped", 0)),
        "manifest_age_s": resume.get("manifest_age_s"),
        "reason": resume.get("reason"),
    }

    spec = getattr(workload, "spec", None)
    governor = getattr(result, "governor", None)
    meta = {
        "algorithm": result.algorithm,
        "backend": "real-mmap",
        "used_processes": result.used_processes,
        "partitioner": getattr(result, "partitioner", None),
    }
    if workload is not None:
        meta.update(
            disks=workload.disks,
            r_objects=workload.r_objects_total,
            s_objects=workload.s_objects_total,
            r_bytes=spec.r_bytes if spec else None,
            skew=round(workload.measured_skew(), 4),
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": DOCUMENT_KIND,
        "meta": meta,
        "totals": {
            "wall_ms": result.wall_ms,
            "pair_count": result.pair_count,
            "checksum": result.checksum,
            "counters": dict(totals_registry.counters),
            "gauges": dict(totals_registry.gauges),
            "histograms": {
                k: h.snapshot() for k, h in totals_registry.histograms.items()
            },
            "recovery": {
                "retries": int(getattr(result, "retries_total", 0)),
                "timeouts": int(getattr(result, "timeouts_total", 0)),
                "inline_fallbacks": int(
                    getattr(result, "inline_fallbacks", 0)
                ),
            },
            "integrity": integrity_doc,
            "resume": resume_doc,
            "unfired_faults": [
                spec.to_dict()
                for spec in getattr(result, "unfired_faults", None) or ()
            ],
            **({"governor": governor} if governor is not None else {}),
        },
        "per_pass": per_pass,
        "per_worker": per_worker,
        "per_segment": _segment_section(totals_registry),
        "spans": list(totals_registry.spans),
    }


def build_sim_stats_document(result, workload=None) -> dict:
    """The stats document for one simulator :class:`JoinRunResult`.

    Per-pass wall times come from the run's checkpoints, per-worker times
    from the per-process virtual clocks (grouped under the pseudo-pass
    ``"run"`` — the simulator attributes counters per process, not per
    pass), and the counters from the :mod:`repro.sim.stats` adapter.
    """
    from repro.sim.stats import machine_stats_registry

    registry = machine_stats_registry(result.stats)
    per_pass = {
        label: {
            "wall_ms": wall_ms,
            "records": None,
            "checksum": None,
            "workers": [],
            "counters": {},
        }
        for label, wall_ms in result.pass_ms.items()
    }
    per_worker: Dict[str, dict] = {}
    if result.per_process_ms:
        per_pass.setdefault(
            "run",
            {
                "wall_ms": result.elapsed_ms,
                "records": None,
                "checksum": None,
                "workers": [],
                "counters": {},
            },
        )
        per_worker["run"] = {
            name: {"wall_ms": clock_ms}
            for name, clock_ms in result.per_process_ms.items()
        }

    meta = {
        "algorithm": result.algorithm,
        "backend": "simulator",
        "setup_ms": result.setup_ms,
    }
    if workload is not None:
        meta.update(
            disks=workload.disks,
            r_objects=workload.r_objects_total,
            s_objects=workload.s_objects_total,
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": DOCUMENT_KIND,
        "meta": meta,
        "totals": {
            "wall_ms": result.elapsed_ms,
            "pair_count": result.pair_count,
            "checksum": result.checksum,
            "counters": dict(registry.counters),
            "gauges": dict(registry.gauges),
            "histograms": {},
        },
        "per_pass": per_pass,
        "per_worker": per_worker,
        "per_segment": {},
        "spans": [],
    }


#: The daemon's request-latency histogram lives under this counter-family
#: name in its registry; the service document summarizes it as percentiles.
SERVICE_LATENCY_METRIC = "service.request_ms"


def build_service_stats_document(
    registry: MetricsRegistry,
    *,
    tenants: Mapping[str, Mapping],
    queue_depth: int = 0,
    active_requests: int = 0,
    startup_sweep: Optional[Mapping[str, int]] = None,
    uptime_s: float = 0.0,
    meta: Optional[Mapping] = None,
) -> dict:
    """The stats document for one join-service daemon's lifetime so far.

    ``registry`` is the daemon's own :class:`MetricsRegistry` (the
    ``service.*`` counters and the request-latency histogram); ``tenants``
    maps tenant name → admission counts.  Join-run sections (``per_pass``
    etc.) are empty — each served join exports its *own* v4 run document;
    this one describes the serving layer above them.
    """
    latency = registry.histograms.get(SERVICE_LATENCY_METRIC)
    latency_doc = {
        "p50": latency.percentile(0.50) if latency else 0.0,
        "p99": latency.percentile(0.99) if latency else 0.0,
        "mean": latency.mean if latency else 0.0,
        "max": (latency.max or 0.0) if latency else 0.0,
        "count": latency.count if latency else 0,
    }
    requests_total = int(
        sum(registry.counters_named("service.requests_total").values())
    )
    document_meta = {"algorithm": "service", "backend": "join-service"}
    if meta:
        document_meta.update(meta)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": DOCUMENT_KIND,
        "meta": document_meta,
        "totals": {
            "wall_ms": uptime_s * 1000.0,
            "counters": dict(registry.counters),
            "gauges": dict(registry.gauges),
            "histograms": {
                k: h.snapshot() for k, h in registry.histograms.items()
            },
        },
        "service": {
            "requests_total": requests_total,
            "queue_depth": int(queue_depth),
            "active_requests": int(active_requests),
            "latency_ms": latency_doc,
            "tenants": {
                name: {
                    "admitted": int(entry.get("admitted", 0)),
                    "queued": int(entry.get("queued", 0)),
                    "rejected": int(entry.get("rejected", 0)),
                    "degraded": int(entry.get("degraded", 0)),
                }
                for name, entry in sorted(tenants.items())
            },
            **(
                {"startup_sweep": {k: int(v) for k, v in startup_sweep.items()}}
                if startup_sweep is not None
                else {}
            ),
        },
        "per_pass": {},
        "per_worker": {},
        "per_segment": {},
        "spans": list(registry.spans),
    }


def write_stats_document(
    path: str | os.PathLike, document: dict, validate: bool = True
) -> None:
    """Validate (by default) and write one document as indented JSON."""
    if validate:
        validate_stats_document(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_stats_document(path: str | os.PathLike) -> dict:
    with open(path) as handle:
        return json.load(handle)
