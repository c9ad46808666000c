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

    def test_fault_plan_that_never_fires_exits_2(self, capsys):
        """The join runs clean, then the plan's unreached spec is named:
        a plan that injected nothing tested nothing."""
        plan = json.dumps({"faults": [
            {"kind": "crash", "task": "grace_probe", "partition": 0,
             "attempt": 5},
        ]})
        assert main([
            "join", "grace", "--real", "--scale", "0.02", "--fault-plan", plan,
        ]) == 2
        captured = capsys.readouterr()
        assert "pairs verified" in captured.out
        assert "crash at grace_probe partition 0 attempt 5" in captured.err

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


class TestDistributionArgValues:
    """A bad distribution argument *value* is a usage error, caught before
    any workload or store exists — not a traceback from the sampler."""

    @pytest.mark.parametrize(
        "distribution, arg, message",
        [
            ("clustered", "run_length=2.5", "run_length"),
            ("clustered", "run_length=0", "run_length"),
            ("zipf", "theta=inf", "zipf exponent"),
            ("zipf", "theta=-1", "zipf exponent"),
            ("partition_hot", "hot_fraction=nan", "hot_fraction"),
            ("partition_hot", "hot_span=0", "hot_span"),
        ],
    )
    def test_rejected_before_store(
        self, distribution, arg, message, tmp_path, capsys
    ):
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main([
                "join", "grace", "--real", "--scale", "0.01",
                "--distribution", distribution, "--dist-arg", arg,
                "--store", str(store),
            ])
        assert exit_info.value.code == 2
        assert not store.exists()
        assert message in capsys.readouterr().err

    def test_run_length_must_not_be_bool(self):
        from repro.workload import DistributionError, validate_distribution_args

        with pytest.raises(DistributionError, match="run_length"):
            validate_distribution_args("clustered", {"run_length": True})

    def test_good_values_still_run(self, capsys):
        assert main([
            "join", "grace", "--real", "--scale", "0.01",
            "--distribution", "clustered", "--dist-arg", "run_length=7",
        ]) == 0


class TestJoinUsageErrors:
    """Bad retry settings, fault plans and budgets, ``--resume`` without
    ``--store``, and flags ``repro join`` does not take are usage errors,
    refused before any workload is generated."""

    @pytest.fixture(autouse=True)
    def no_generation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the workload was generated")

        monkeypatch.setattr("repro.cli.generate_workload", refuse)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--retries", "-1"], "--retries"),
            (["--task-timeout", "0"], "--task-timeout"),
            (["--task-timeout", "-2"], "--task-timeout"),
        ],
    )
    def test_bad_retry_settings_exit_2(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["join", "grace", "--real", "--scale", "0.01", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--fault-plan", "{not json"], "invalid --fault-plan"),
            (["--fault-plan", json.dumps({"faults": [
                {"kind": "crash", "task": "grace_probe", "partition": "x"}
            ]})], "invalid --fault-plan"),
            (["--fault-plan", json.dumps({"faults": [
                {"kind": "crash", "task": "nope", "partition": 0}
            ]})], "unknown task"),
            (["--fault-plan", json.dumps({"faults": [
                {"kind": "crash", "task": "nested_loops_pass0",
                 "partition": 0}
            ]})], "never runs nested_loops_pass0 partition 0"),
            (["--fault-plan", json.dumps({"faults": [
                {"kind": "crash", "task": "grace_probe", "partition": 9}
            ]})], "4 disks never runs grace_probe partition 9"),
            (["--fault-plan", json.dumps({"faults": [
                {"kind": "hang", "task": "grace_probe", "partition": 0,
                 "hang_s": -1}
            ]})], "hang_s"),
            (["--fault-plan", '{"faults": [{"kind": "hang", "task": '
              '"grace_probe", "partition": 0, "hang_s": NaN}]}'], "hang_s"),
            (["--mem-budget", "lots"], "invalid budget"),
            (["--disk-budget", "0"], "invalid budget"),
            (["--resume"], "--resume needs --store"),
        ],
        ids=["fault-plan-json", "fault-plan-partition", "fault-plan-task",
             "fault-plan-task-not-in-plan", "fault-plan-partition-off-disks",
             "fault-plan-negative-hang", "fault-plan-nan-hang",
             "mem-budget", "disk-budget", "resume-without-store"],
    )
    def test_bad_run_settings_exit_2(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["join", "grace", "--real", "--scale", "0.01", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_join_takes_no_max_concurrent(self, capsys):
        """One join in a fresh process is always admitted at once, so a
        concurrency cap there could never queue or refuse anything."""
        with pytest.raises(SystemExit) as exit_info:
            main([
                "join", "grace", "--real", "--scale", "0.01",
                "--max-concurrent", "1",
            ])
        assert exit_info.value.code == 2
        assert "--max-concurrent" in capsys.readouterr().err
