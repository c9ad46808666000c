"""Tests for workload persistence."""

from pathlib import Path

import numpy as np
import pytest

from repro.joins import expected_checksum
from repro.workload import (
    WorkloadIOError,
    WorkloadSpec,
    generate_workload,
    load_workload,
    save_workload,
)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(
            r_objects=500,
            s_objects=400,
            distribution="zipf",
            distribution_args={"theta": 0.8},
            seed=13,
        ),
        disks=3,
    )


class TestRoundTrip:
    def test_relations_identical(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert loaded.r_partitions == workload.r_partitions
        assert loaded.s_objects == workload.s_objects
        assert loaded.disks == workload.disks

    def test_spec_preserved(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert loaded.spec == workload.spec

    def test_oracle_checksum_preserved(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        assert expected_checksum(load_workload(path)) == expected_checksum(workload)

    def test_pointer_map_reconstructed(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert loaded.pointer_map.partitions == 3
        assert loaded.measured_skew() == pytest.approx(workload.measured_skew())


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadIOError):
            load_workload(tmp_path / "ghost.npz")

    def test_non_archive_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(WorkloadIOError):
            load_workload(path)

    def test_archive_without_header(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(5))
        with pytest.raises(WorkloadIOError):
            load_workload(path)

    def test_corrupt_pointer_detected(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        save_workload(workload, path)
        archive = dict(np.load(path))
        bad_sptr = archive["r_sptr"].copy()
        bad_sptr[0] = 10_000_000
        archive["r_sptr"] = bad_sptr
        np.savez(path, **archive)
        with pytest.raises(WorkloadIOError, match="out-of-range"):
            load_workload(path)


class TestParentWrittenArchive:
    """``data/parent_scale001.npz`` was saved by the object-list
    implementation (scale 0.01, seed 96, 4 disks); the format did not
    change when the workload became columnar."""

    ARCHIVE = Path(__file__).parent / "data" / "parent_scale001.npz"

    def test_loads_to_the_generated_columns(self):
        loaded = load_workload(self.ARCHIVE)
        fresh = generate_workload(
            WorkloadSpec.paper_validation(scale=0.01, seed=96), disks=4
        )
        assert loaded.spec == fresh.spec and loaded.disks == fresh.disks
        for mine, theirs in zip(loaded.r_columns, fresh.r_columns, strict=True):
            for a, b in zip(mine, theirs, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(loaded.s_value, fresh.s_value)
        assert np.array_equal(loaded.s_payload, fresh.s_payload)

    def test_resaving_reproduces_every_array(self, tmp_path):
        save_workload(load_workload(self.ARCHIVE), tmp_path / "again.npz")
        parent, again = np.load(self.ARCHIVE), np.load(tmp_path / "again.npz")
        assert sorted(parent.files) == sorted(again.files)
        for name in parent.files:
            assert parent[name].dtype == again[name].dtype
            assert np.array_equal(parent[name], again[name]), name


class TestRejectsWhatColumnsCannotHold:
    def _rewrite(self, workload, path, **changes):
        save_workload(workload, path)
        archive = dict(np.load(path))
        for name, edit in changes.items():
            array = archive[name].copy()
            edit(array)
            archive[name] = array
        np.savez(path, **archive)

    def test_negative_pointer_reported_as_out_of_range(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        self._rewrite(workload, path, r_sptr=lambda a: a.__setitem__(3, -1))
        with pytest.raises(WorkloadIOError, match="out-of-range pointer -1"):
            load_workload(path)

    def test_negative_field_rejected(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        self._rewrite(workload, path, s_value=lambda a: a.__setitem__(0, -5))
        with pytest.raises(WorkloadIOError, match="negative"):
            load_workload(path)

    def test_non_positional_sid_rejected(self, workload, tmp_path):
        path = tmp_path / "wl.npz"
        self._rewrite(workload, path, s_sid=lambda a: a.__setitem__(0, 7))
        with pytest.raises(WorkloadIOError, match="indexed by sid"):
            load_workload(path)
