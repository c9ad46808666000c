"""Shared benchmark infrastructure.

Every benchmark regenerates one figure (or extension experiment) of the
paper, prints the series, and writes the rendered output to
``benchmarks/results/`` so the artifacts survive pytest's capture.

Scales: each bench has a default workload scale chosen so the full suite
runs in a few minutes; set ``REPRO_BENCH_SCALE=1.0`` to reproduce the
paper's full 102,400-object geometry everywhere (slower), or any other
value to override the defaults globally.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.calibrate import calibrated_machine_parameters
from repro.sim import SimConfig

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale(default: float) -> float:
    """The workload scale for a bench: env override or the bench default."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "").strip()
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


@pytest.fixture(scope="session")
def bench_config() -> SimConfig:
    return SimConfig()


@pytest.fixture(scope="session")
def bench_machine(bench_config):
    """Calibrated model parameters, measured once per session."""
    return calibrated_machine_parameters(bench_config)


@pytest.fixture(scope="session")
def record():
    """Print a rendered experiment and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record


@pytest.fixture(scope="session")
def record_stats():
    """Validate and persist one observability stats document under results/.

    Every bench harness can emit the versioned JSON stats schema of
    ``docs/metrics_schema.md`` next to its rendered results; validation
    here means a bench fails loudly if it emits a malformed document.
    """
    from repro.obs import write_stats_document

    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, document: dict) -> Path:
        path = RESULTS_DIR / f"{name}.json"
        write_stats_document(path, document)
        return path

    return _record
