"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_defaults(self):
        args = build_parser().parse_args(["join", "grace"])
        assert args.algorithm == "grace"
        assert args.fraction == 0.1
        assert args.disks == 4
        assert not args.real

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "bitmap-join"])

    def test_figures_choices(self):
        args = build_parser().parse_args(["figures", "--figure", "1a"])
        assert args.figure == "1a"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "9z"])


class TestCommands:
    def test_join_sim(self, capsys):
        assert main(["join", "grace", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "pairs verified" in out

    def test_join_real(self, capsys):
        assert main(["join", "nested-loops", "--scale", "0.01", "--real"]) == 0
        out = capsys.readouterr().out
        assert "real mmap backend" in out

    def test_join_real_hash_loops_unsupported(self, capsys):
        assert main(["join", "hash-loops", "--scale", "0.01", "--real"]) == 2

    def test_model(self, capsys):
        assert main(["model", "nested-loops", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        assert "pass0" in out

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "grace", "--scale", "0.01", "--fractions", "0.1,0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "experiment_ms" in out
        assert "relative error" in out

    def test_figure_1a(self, capsys):
        assert main(["figures", "--figure", "1a"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1a" in out
        assert "dttr_ms" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--accesses", "50"]) == 0
        out = capsys.readouterr().out
        assert "dttr_ms" in out
        assert "newMap_ms" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "grace", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "elasticity" in out
        assert "dttr" in out

    def test_crossover(self, capsys):
        assert main(["crossover", "nested-loops", "grace"]) == 0
        out = capsys.readouterr().out
        assert "MRproc/|R|" in out

    def test_crossover_no_flip(self, capsys):
        assert main(["crossover", "grace", "grace"]) == 0
        out = capsys.readouterr().out
        assert "no crossover" in out

    def test_workload_save_and_info(self, capsys, tmp_path):
        path = str(tmp_path / "wl.npz")
        assert main(["workload", "save", path, "--scale", "0.005"]) == 0
        assert main(["workload", "info", path]) == 0
        out = capsys.readouterr().out
        assert "saved" in out
        assert "measured skew" in out

    def test_report_to_file(self, tmp_path):
        out_path = str(tmp_path / "r.md")
        assert main(
            ["report", "--scale", "0.02", "--no-comparison", "--out", out_path]
        ) == 0
        text = open(out_path).read()
        assert "Figure 5c" in text

    def test_instrumented_join_stats_validate(self, tmp_path):
        """An instrumented real join writes a stats document the
        validator accepts; an unknown schema version is rejected."""
        path = tmp_path / "stats.json"
        assert main(["join", "grace", "--real", "--scale", "0.02",
                     "--stats-out", str(path)]) == 0
        assert main(["stats", "validate", str(path)]) == 0
        document = json.loads(path.read_text())
        document["schema_version"] = 99
        path.write_text(json.dumps(document))
        assert main(["stats", "validate", str(path)]) == 1
