"""The exported stats document: schema validity, golden shape, comparison.

The golden file ``golden_stats_shape.json`` pins the *structure* of the
document a real instrumented run emits — section names, per-pass labels,
per-worker summary fields, per-segment kinds, counter/gauge key sets and
span paths — without pinning timings, which vary run to run.  Any schema
change (renamed counter, dropped section, new pass label) fails here and
forces a conscious update: regenerate with ``REPRO_REGEN_GOLDEN=1``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.model import (
    MachineParameters,
    MemoryParameters,
    RelationParameters,
    grace_cost,
)
from repro.obs import (
    SCHEMA_VERSION,
    StatsSchemaError,
    build_sim_stats_document,
    compare_with_model,
    load_stats_document,
    schema_problems,
    validate_stats_document,
    write_stats_document,
)
from repro.parallel import run_real_join
from repro.sim.stats import MachineStats
from repro.workload import WorkloadSpec, generate_workload

GOLDEN = Path(__file__).parent / "golden_stats_shape.json"


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(r_objects=800, s_objects=800, seed=21), disks=4
    )


@pytest.fixture(scope="module")
def real_document(workload, tmp_path_factory):
    root = tmp_path_factory.mktemp("obs") / "db"
    result = run_real_join(
        "grace", workload, str(root), use_processes=False, collect_metrics=True
    )
    return result.stats_document(workload)


def document_shape(document: dict) -> dict:
    """Reduce a document to its run-independent structural skeleton."""
    return {
        "top_level": sorted(document),
        "schema_version": document["schema_version"],
        "kind": document["kind"],
        "meta": {
            "fields": sorted(document["meta"]),
            "algorithm": document["meta"]["algorithm"],
            "backend": document["meta"]["backend"],
        },
        "totals": {
            "fields": sorted(document["totals"]),
            "counters": sorted(document["totals"]["counters"]),
            "gauges": sorted(document["totals"]["gauges"]),
            "histograms": sorted(document["totals"]["histograms"]),
        },
        "per_pass": {
            label: sorted(entry)
            for label, entry in sorted(document["per_pass"].items())
        },
        "per_worker": {
            label: {
                worker: sorted(summary)
                for worker, summary in sorted(workers.items())
            }
            for label, workers in sorted(document["per_worker"].items())
        },
        "per_segment": {
            kind: sorted(entry)
            for kind, entry in sorted(document["per_segment"].items())
        },
        "span_paths": sorted({s["path"] for s in document["spans"]}),
    }


class TestRealDocument:
    def test_document_is_schema_valid(self, real_document):
        assert schema_problems(real_document) == []
        validate_stats_document(real_document)

    def test_shape_matches_golden(self, real_document):
        shape = document_shape(real_document)
        if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
            GOLDEN.write_text(
                json.dumps(shape, indent=2, sort_keys=True) + "\n"
            )
        golden = json.loads(GOLDEN.read_text())
        assert shape == golden, (
            "exported stats document structure drifted from the golden "
            "shape; if intentional, regenerate with REPRO_REGEN_GOLDEN=1 "
            "and document the change in docs/metrics_schema.md"
        )

    def test_per_worker_summaries_account_for_the_join(self, real_document, workload):
        partition_workers = real_document["per_worker"]["partition"]
        assert sorted(partition_workers) == [
            str(d) for d in range(workload.disks)
        ]
        probe_workers = real_document["per_worker"]["probe"].values()
        assert sum(w["pairs"] for w in probe_workers) == workload.r_objects_total
        for workers in real_document["per_worker"].values():
            for summary in workers.values():
                assert summary["wall_ms"] > 0
                assert summary["pages_touched_est"] >= 0

    def test_page_faults_are_summed_per_pass(self, real_document):
        """Each task's ``RUSAGE_THREAD`` fault deltas are worker counters;
        a pass's ``minflt``/``majflt`` are its workers' sum.  Reading
        through the mapping faults pages in, so the scans count some."""
        for label, entry in real_document["per_pass"].items():
            workers = real_document["per_worker"][label].values()
            for fault in ("minflt", "majflt"):
                counted = sum(
                    value for key, value in entry["counters"].items()
                    if key.startswith(f"worker.{fault}{{")
                )
                assert entry[fault] == counted
                assert entry[fault] == sum(w[fault] for w in workers)
        assert sum(
            entry["minflt"] for entry in real_document["per_pass"].values()
        ) > 0

    def test_no_fault_counters_without_metrics(self, workload, tmp_path):
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"), use_processes=False,
            collect_metrics=False,
        )
        document = result.stats_document(workload)
        assert schema_problems(document) == []
        for entry in document["per_pass"].values():
            assert "minflt" not in entry and "majflt" not in entry

    def test_segment_section_covers_base_spill_and_output(self, real_document):
        kinds = set(real_document["per_segment"])
        assert {"R", "S", "BS", "PAIRS"} <= kinds
        pairs = real_document["per_segment"]["PAIRS"]
        assert pairs["created"] > 0
        assert pairs["write_records"] > 0

    def test_round_trips_through_disk(self, real_document, tmp_path):
        path = tmp_path / "stats.json"
        write_stats_document(path, real_document)
        assert load_stats_document(path) == json.loads(
            json.dumps(real_document)
        )


class TestSchemaProblems:
    def test_missing_version_is_reported(self, real_document):
        broken = dict(real_document)
        del broken["schema_version"]
        assert any("schema_version" in p for p in schema_problems(broken))

    def test_future_version_is_rejected(self, real_document):
        broken = dict(real_document)
        broken["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in schema_problems(broken))

    def test_missing_section_is_reported(self, real_document):
        broken = dict(real_document)
        del broken["per_segment"]
        assert any("per_segment" in p for p in schema_problems(broken))

    def test_orphan_per_worker_pass_is_reported(self, real_document):
        broken = json.loads(json.dumps(real_document))
        broken["per_worker"]["phantom"] = {}
        assert any("phantom" in p for p in schema_problems(broken))

    def test_write_refuses_invalid_documents(self, tmp_path):
        with pytest.raises(StatsSchemaError):
            write_stats_document(tmp_path / "bad.json", {"kind": "nonsense"})
        assert not (tmp_path / "bad.json").exists() or True

    def test_non_mapping_document(self):
        assert schema_problems([1, 2, 3])


class TestSimDocument:
    def test_duck_typed_result_exports_valid_document(self):
        class FakeRun:
            algorithm = "grace"
            elapsed_ms = 120.0
            setup_ms = 4.0
            pair_count = 800
            checksum = 1234
            stats = MachineStats(context_switches=7)
            pass_ms = {"pass0": 40.0, "pass1": 30.0, "probe-join": 50.0}
            per_process_ms = {"Rproc0": 110.0, "Sproc": 60.0}

        document = build_sim_stats_document(FakeRun())
        assert schema_problems(document) == []
        assert document["meta"]["backend"] == "simulator"
        assert document["totals"]["counters"]["sim.context_switches"] == 7
        assert document["per_worker"]["run"]["Rproc0"]["wall_ms"] == 110.0


class TestModelComparison:
    @pytest.fixture(scope="class")
    def report(self):
        relations = RelationParameters(r_objects=800, s_objects=800)
        memory = MemoryParameters.from_fractions(relations, 0.1)
        return grace_cost(MachineParameters(), relations, memory)

    def test_compare_aligns_measured_and_model_passes(self, real_document, report):
        comparison = compare_with_model(real_document, report)
        assert comparison.algorithm == "grace"
        assert {row.measured_pass for row in comparison.rows} == {
            "partition",
            "probe",
        }
        assert sum(row.measured_share for row in comparison.rows) == pytest.approx(1.0)
        assert sum(row.predicted_share for row in comparison.rows) == pytest.approx(1.0)
        # The model's setup pass has no measured twin; it must be surfaced,
        # not silently dropped.
        assert comparison.unaligned_model_ms > 0
        text = comparison.describe()
        assert "partition" in text and "probe" in text

    def test_unknown_algorithm_is_rejected(self, real_document, report):
        broken = json.loads(json.dumps(real_document))
        broken["meta"]["algorithm"] = "hash-loops"
        with pytest.raises(StatsSchemaError):
            compare_with_model(broken, report)
