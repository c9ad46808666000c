"""Generator pins for non-default ``distribution_args`` and full scale.

``data/generator_pins_args.json`` was recorded from the per-call
``random.Random`` generator, before it drew its words in bulk.  With
``data/generator_pins.json`` it defines the workload format: a seed names
the same arrays on every version, whatever the running Python's
``random`` does.  Regenerate (only when the format is meant to change)
with ``PYTHONPATH=src python -m tests.workload.test_generator_pins_args``.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.joins import expected_checksum
from repro.workload import WorkloadSpec, generate_workload

PINS_PATH = Path(__file__).parent / "data" / "generator_pins_args.json"
DISKS = 4
SEEDS = (7, 96)

# name -> (scale, spec overrides)
CASES = {
    "zipf-theta0": (0.05, {"distribution": "zipf", "distribution_args": {"theta": 0}}),
    "zipf-theta1.2": (
        0.05, {"distribution": "zipf", "distribution_args": {"theta": 1.2}}),
    "partition_hot-0.8-0.1": (
        0.05,
        {
            "distribution": "partition_hot",
            "distribution_args": {"hot_fraction": 0.8, "hot_span": 0.1},
        },
    ),
    "clustered-run1": (
        0.05, {"distribution": "clustered", "distribution_args": {"run_length": 1}}),
    "clustered-run7": (
        0.05, {"distribution": "clustered", "distribution_args": {"run_length": 7}}),
    # 2.5 blocks of S: two whole permutations and a truncated third.
    "permutation-r2.5s": (
        0.05, {"distribution": "permutation", "r_objects": 12_800}),
    "uniform-full": (1.0, {}),
    "partition_hot-full": (1.0, {"distribution": "partition_hot"}),
}


def case_spec(name: str, seed: int) -> WorkloadSpec:
    scale, overrides = CASES[name]
    return replace(WorkloadSpec.paper_validation(scale=scale, seed=seed), **overrides)


def array_digests(workload) -> dict:
    arrays = {"s_value": workload.s_value, "s_payload": workload.s_payload}
    for i, columns in enumerate(workload.r_columns):
        for field, array in columns._asdict().items():
            arrays[f"r{i}.{field}"] = array
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(array, dtype="<u8").tobytes()
        ).hexdigest()
        for name, array in arrays.items()
    }


def pin(name: str, seed: int) -> dict:
    workload = generate_workload(case_spec(name, seed), DISKS)
    return {
        "arrays": array_digests(workload),
        "expected_checksum": expected_checksum(workload),
        "skew_hex": workload.measured_skew().hex(),
    }


KEYS = [f"{name}-{seed}" for name in CASES for seed in SEEDS]


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_generator_args_pin(key, pins):
    name, seed = key.rsplit("-", 1)
    assert pin(name, int(seed)) == pins[key]


if __name__ == "__main__":
    print(json.dumps(
        {f"{name}-{seed}": pin(name, seed) for name in CASES for seed in SEEDS},
        indent=1, sort_keys=True,
    ))
