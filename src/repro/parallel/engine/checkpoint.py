"""Crash-safe pass-level checkpoints for the plan executor.

The paper's whole premise is that join intermediates live in memory-
mapped files — which means after a process crash the OS has usually
already persisted every *completed* pass.  This module makes that
surviving work reusable instead of discarding it:

* after each stage barrier but the last the executor records the
  stage's published artifacts — path, record count and footer CRC, all
  from one header-page read per new segment — into a manifest
  (``checkpoint.json`` in the store root, compact JSON), written with
  the same tmp-write/atomic-rename idiom as segment publication — a
  reader can only ever see a complete manifest, never a torn one.  A
  stage writes O(partitions) artifacts (one RUN segment per sort-run
  task, one bucket file per contributor), so a barrier's bookkeeping
  does not grow with the run or flush count.  The final barrier records
  nothing: the run's end deletes the manifest with no work in between,
  so a crash there costs only the final pass, which is all a record
  would have saved;
* ``execute_plan(resume=True)`` validates the manifest against the
  on-disk segments (full payload scrub, not just existence — a bit
  flipped while the driver was dead must send the producing stage back
  to work) and replays the completed stages' outcomes, restarting from
  the first incomplete stage;
* the manifest carries the *exact* plan knobs and degradation count the
  recorded stages ran under — and the sort-run tasks' key samples — so
  the resumed run re-derives every rebalance/degradation decision
  deterministically and its output is bit-identical to an uninterrupted
  run.

A manifest only ever describes work under one ``(algorithm, workload,
plan)`` identity and one manifest version; a mismatch of either (a
version-1 manifest names one file per sorted run) — or a base relation
that fails its scrub — invalidates the whole manifest and the run
starts fresh.  A corrupt *stage artifact* is cheaper: the manifest is
truncated to the longest clean prefix of stages, so only the producing
stage (and what follows it) re-runs.  Losing a checkpoint costs
recomputation; trusting a wrong one costs correctness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.governor.predict import JoinPlan
from repro.parallel.engine.task import PairResult
from repro.storage.segment import StorageError, _read_header, scrub_segment
from repro.storage.store import Store

MANIFEST_NAME = "checkpoint.json"
MANIFEST_VERSION = 2


def manifest_path(root: str | os.PathLike) -> Path:
    return Path(root) / MANIFEST_NAME


def workload_signature(workload) -> str:
    """A stable identity for (workload spec, partitioning).

    Two runs with equal signatures materialize byte-identical R/S
    partitions (generation is seeded), which is what makes replaying a
    manifest recorded by a dead driver sound.
    """
    blob = json.dumps(
        {"disks": workload.disks, **dataclasses.asdict(workload.spec)},
        sort_keys=True,
    )
    return hashlib.sha1(blob.encode()).hexdigest()


def _temp_snapshot(store: Store) -> set:
    """Every published temp segment, as store-root-relative paths.

    Names only — one ``scandir`` per disk directory, no path objects.
    """
    seen = set()
    for disk in range(store.disks):
        directory = store.disk_dir(disk)
        with os.scandir(directory) as entries:
            for entry in entries:
                name = entry.name
                if name.endswith(".seg") and name not in ("R.seg", "S.seg"):
                    seen.add(f"{directory.name}/{name}")
    return seen


class CheckpointWriter:
    """Accumulates stage records and publishes the manifest atomically."""

    def __init__(
        self,
        root: str | os.PathLike,
        algorithm: str,
        signature: str,
        replayed: Optional[List[dict]] = None,
    ) -> None:
        self._root = Path(root)
        self._algorithm = algorithm
        self._signature = signature
        # Resumed runs preload the stages they replayed: a second crash
        # must not forget the work the first resume already proved.
        self._records: List[dict] = list(replayed or [])
        self._before: set = set()

    def begin_stage(self, store: Store) -> None:
        """Snapshot the store's temps so the barrier can diff them."""
        self._before = _temp_snapshot(store)

    def record_stage(
        self,
        store: Store,
        *,
        label: str,
        kind: str,
        wall_ms: float,
        count: int,
        checksum: Optional[int],
        totals: Dict[str, int],
        pair_files: Sequence[PairResult],
        rebalance: Optional[dict],
        plan: dict,
        runtime_degradations: int,
        run_keys: Optional[list] = None,
    ) -> None:
        """Record one completed stage barrier and publish the manifest."""
        artifacts = []
        for rel in sorted(_temp_snapshot(store) - self._before):
            header = _read_header(self._root / rel)
            artifacts.append(
                {"path": rel, "count": header.count, "crc": header.crc}
            )
        self._records.append(
            {
                "label": label,
                "kind": kind,
                "wall_ms": wall_ms,
                "count": count,
                "checksum": checksum,
                "totals": dict(totals),
                "pair_files": [
                    {
                        "count": result.count,
                        "checksum": result.checksum,
                        "path": str(
                            Path(result.path).relative_to(self._root)
                        ),
                    }
                    for result in pair_files
                ],
                "rebalance": rebalance,
                "artifacts": artifacts,
                "run_keys": run_keys,
            }
        )
        document = {
            "version": MANIFEST_VERSION,
            "algorithm": self._algorithm,
            "signature": self._signature,
            "plan": plan,
            "runtime_degradations": runtime_degradations,
            "written_at": time.time(),
            "stages": self._records,
        }
        # Same publish protocol as a segment: a crash mid-write leaves
        # the previous manifest intact, never a torn JSON.
        target = manifest_path(self._root)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(document, separators=(",", ":")))
        os.replace(tmp, target)

    def reset(self) -> None:
        """Drop all records and the manifest (a degradation round resets
        the run's temps, so everything recorded is about to be wiped)."""
        self._records.clear()
        self._before = set()
        discard_manifest(self._root)


def discard_manifest(root: str | os.PathLike) -> None:
    manifest_path(root).unlink(missing_ok=True)
    tmp = manifest_path(root)
    tmp.with_name(tmp.name + ".tmp").unlink(missing_ok=True)


def load_manifest(root: str | os.PathLike) -> Optional[dict]:
    """The store's manifest, or None when absent or unreadable.

    Any version loads; :func:`validate_manifest` declines another
    build's with a reason.
    """
    path = manifest_path(root)
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or not isinstance(
        document.get("stages"), list
    ):
        return None
    return document


@dataclasses.dataclass
class ResumeState:
    """What a validated manifest lets the executor skip."""

    records: List[dict]
    plan: JoinPlan
    runtime_degradations: int
    manifest_age_s: float
    segments_scrubbed: int
    #: Store-root-relative paths of every recorded artifact — temps not
    #: in this set are partial outputs of the incomplete stage and must
    #: be cleared before it re-runs (glob-driven consumers would
    #: otherwise double-count them).
    recorded_paths: set


def validate_manifest(
    manifest: dict,
    store: Store,
    algorithm: str,
    signature: str,
    stage_labels: Sequence[str],
) -> Tuple[Optional[ResumeState], Optional[str], int]:
    """Prove a manifest against the on-disk store.

    Returns ``(state, problem, scrub_failures)``.  ``state`` is None
    whenever the whole manifest is untrustworthy — another manifest
    version, wrong identity, a stage sequence that is not a prefix of
    the current plan, plan knobs other than this build's
    :class:`JoinPlan` fields (a manifest an older or newer build wrote),
    or a base relation failing its payload scrub.  A corrupt or missing
    *stage artifact* only costs the stages from its producer onward: the
    records are truncated to the longest clean prefix (``problem`` then
    reports what was dropped while ``state`` still replays the prefix).
    The caller falls back to a fresh run on None; resume is an
    optimization, never a correctness risk.
    """
    scrubbed = 0
    failures = 0
    if manifest.get("version") != MANIFEST_VERSION:
        return None, (
            f"manifest version {manifest.get('version')!r} is not this "
            f"build's {MANIFEST_VERSION}"
        ), 0
    if manifest.get("algorithm") != algorithm:
        return None, (
            f"manifest records algorithm {manifest.get('algorithm')!r}, "
            f"not {algorithm!r}"
        ), 0
    if manifest.get("signature") != signature:
        return None, "manifest records a different workload", 0
    records = manifest["stages"]
    labels = [record.get("label") for record in records]
    if labels != list(stage_labels[: len(labels)]):
        return None, (
            f"manifest stages {labels} are not a prefix of the plan's "
            f"{list(stage_labels)}"
        ), 0
    if not records:
        return None, "manifest records no completed stages", 0
    plan = manifest.get("plan")
    if not isinstance(plan, dict):
        return None, "manifest carries no plan", 0
    differing = set(plan) ^ {knob.name for knob in dataclasses.fields(JoinPlan)}
    if differing:
        return None, (
            "manifest plan was recorded by a build with other knobs "
            f"(differing: {', '.join(sorted(differing))})"
        ), 0
    # The base relations first: a warm store whose R/S rotted must be
    # re-materialized, not trusted.
    for disk in range(store.disks):
        for name in ("R", "S"):
            path = store.path(disk, name)
            try:
                scrub_segment(path)
                scrubbed += 1
            except StorageError as error:
                return None, f"base relation failed scrub: {error}", 1
    recorded_paths: set = set()
    problem: Optional[str] = None
    kept = len(records)
    for index, record in enumerate(records):
        stage_paths: set = set()
        stage_problem: Optional[str] = None
        for artifact in record.get("artifacts", []):
            rel = artifact["path"]
            path = store.root / rel
            try:
                scrub_segment(path)
                scrubbed += 1
            except StorageError as error:
                failures += 1
                stage_problem = f"artifact failed scrub: {error}"
                break
            header = _read_header(path)
            if artifact.get("crc") is not None and (
                header.crc != artifact["crc"]
            ):
                failures += 1
                stage_problem = (
                    f"{rel} does not match the checksum the manifest "
                    "recorded (the file was replaced since the barrier)"
                )
                break
            if header.count != artifact.get("count"):
                failures += 1
                stage_problem = (
                    f"{rel} does not hold the {artifact.get('count')} "
                    "records the manifest recorded"
                )
                break
            stage_paths.add(rel)
        if stage_problem is not None:
            # The producing stage must re-run; everything after it
            # consumed its output, so it re-runs too.  The clean prefix
            # below stays replayable.
            kept = index
            problem = (
                f"stage {record.get('label')!r} dropped from the "
                f"checkpoint ({stage_problem}); resuming before it"
            )
            break
        recorded_paths |= stage_paths
    records = records[:kept]
    if not records:
        return None, problem or "manifest records no intact stages", failures
    age = max(0.0, time.time() - float(manifest.get("written_at", 0.0)))
    return (
        ResumeState(
            records=records,
            plan=JoinPlan(**plan),
            runtime_degradations=int(
                manifest.get("runtime_degradations", 0)
            ),
            manifest_age_s=age,
            segments_scrubbed=scrubbed,
            recorded_paths=recorded_paths,
        ),
        problem,
        failures,
    )
