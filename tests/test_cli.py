"""Command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.stack_distance import StackDistanceTracker
from repro.cli import main


def _off_by_one_tracker():
    """``_access_block`` with every depth >= 1 reported one too deep."""
    original = StackDistanceTracker._access_block

    def buggy(self, pages):
        depths = original(self, pages)
        return np.where(depths >= 1, depths + 1, depths)

    return buggy


class TestList:
    def test_lists_experiments_and_methods(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("fig7", "table5", "ablation", "JOINT", "2TFM-8GB"):
            assert token in out


class TestExperiment:
    def test_runs_fig5(self, capsys):
        assert main(["experiment", "fig5", "--profile", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out
        assert "t_opt_eq5_s" in out

    def test_unknown_experiment_errors(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["experiment", "fig99"])


class TestSimulate:
    def test_simulate_fixed_method(self, capsys):
        code = main(
            [
                "simulate",
                "2TFM-8GB",
                "--dataset-gb",
                "2",
                "--rate-mb",
                "20",
                "--periods",
                "2",
                "--warmup-periods",
                "1",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total energy" in out
        assert "2TFM-8GB" in out

    def test_simulate_joint(self, capsys):
        code = main(
            [
                "simulate",
                "JOINT",
                "--dataset-gb",
                "2",
                "--rate-mb",
                "20",
                "--periods",
                "2",
                "--warmup-periods",
                "1",
            ]
        )
        assert code == 0
        assert "JOINT" in capsys.readouterr().out

    def test_bad_method_name(self):
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            main(["simulate", "NOPE-1GB", "--periods", "1"])


class TestReport:
    def test_report_with_baseline(self, capsys):
        code = main(
            [
                "report",
                "2TFM-8GB",
                "--dataset-gb",
                "2",
                "--rate-mb",
                "20",
                "--periods",
                "2",
                "--warmup-periods",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "energy (kJ)" in out
        assert "vs ALWAYS-ON" in out

    def test_report_baseline_itself(self, capsys):
        code = main(
            [
                "report",
                "ALWAYS-ON",
                "--dataset-gb",
                "2",
                "--rate-mb",
                "20",
                "--periods",
                "1",
                "--warmup-periods",
                "0",
            ]
        )
        assert code == 0
        assert "vs ALWAYS-ON" not in capsys.readouterr().out


class TestTrace:
    def test_generate_and_characterise(self, capsys, tmp_path):
        save = tmp_path / "t.npz"
        code = main(
            [
                "trace",
                "--dataset-gb",
                "1",
                "--rate-mb",
                "10",
                "--duration-s",
                "300",
                "--save",
                str(save),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out
        assert save.exists()

    def test_import_block_csv(self, capsys, tmp_path):
        path = tmp_path / "io.csv"
        rows = ["time,offset,size"]
        for i in range(50):
            rows.append(f"{i * 2.0},{i * 4 * 1024 * 1024},{4 * 1024 * 1024}")
        path.write_text("\n".join(rows) + "\n")
        code = main(["trace", "--block-csv", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload:" in out
        assert "io.csv" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_quick_writes_documents(self, capsys, tmp_path):
        import json

        code = main(
            ["bench", "--suite", "sweep", "--quick",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "BENCH_sweep.json").read_text())
        assert doc["suite"] == "sweep" and doc["quick"] is True
        assert doc["entries"]["sweep_speedup"]["value"] > 0
        assert "sweep_speedup" in capsys.readouterr().out

    def _own_baseline(self, tmp_path, monkeypatch, scale_ratios=1.0):
        """Measure the micro suite once into a fresh baseline, then make
        every later run return that document (ratios times
        ``scale_ratios``).  A second real measurement would draw its
        ratios from whatever host state it happened to meet."""
        import copy
        import json

        import repro.perf

        base = tmp_path / "baselines"
        assert main(
            ["bench", "--suite", "micro", "--quick",
             "--out-dir", str(tmp_path / "out"), "--update-baselines",
             "--baseline-dir", str(base)]
        ) == 0
        doc = json.loads((base / "BENCH_micro.json").read_text())
        rerun = copy.deepcopy(doc)
        for entry in rerun["entries"].values():
            if entry.get("kind") == "ratio":
                entry["value"] *= scale_ratios
        monkeypatch.setattr(repro.perf, "run_suite", lambda suite, quick: rerun)
        return ["bench", "--suite", "micro", "--quick",
                "--out-dir", str(tmp_path / "out"), "--check",
                "--baseline-dir", str(base)]

    def test_bench_check_against_own_baseline(self, capsys, tmp_path, monkeypatch):
        check = self._own_baseline(tmp_path, monkeypatch)
        assert main(check) == 0
        out = capsys.readouterr().out
        assert "baseline check [micro]" in out
        assert "REGRESSED" not in out

    def test_bench_check_flags_a_regressed_ratio(
        self, capsys, tmp_path, monkeypatch
    ):
        # Half the baseline is below the 30 % tolerance's floor.
        check = self._own_baseline(tmp_path, monkeypatch, scale_ratios=0.5)
        assert main(check) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0


class TestSuiteOption:
    def test_simulate_with_suite(self, capsys):
        code = main(
            [
                "simulate",
                "2TFM-8GB",
                "--suite",
                "small-dataset",
                "--periods",
                "1",
                "--warmup-periods",
                "0",
            ]
        )
        assert code == 0
        assert "total energy" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            main(["simulate", "JOINT", "--suite", "nope", "--periods", "1"])

    def test_list_shows_suites(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "workload suites" in out
        assert "diurnal" in out


class TestVerifyCommand:
    def test_verify_passes_on_clean_code(self, capsys):
        code = main(["verify", "--seeds", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        for check in ("stack", "intervals", "predictor", "joint", "energy"):
            assert check in out

    def test_verify_check_subset(self, capsys):
        code = main(["verify", "--seeds", "2", "--checks", "stack,intervals"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stack" in out and "intervals" in out
        assert "energy" not in out

    def test_verify_exits_nonzero_on_divergence(self, capsys, monkeypatch):
        monkeypatch.setattr(
            StackDistanceTracker, "_access_block", _off_by_one_tracker()
        )
        code = main(["verify", "--seeds", "10", "--checks", "stack"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out and "reproducer" in out

    def test_verify_progress_flag(self, capsys):
        code = main(["verify", "--seeds", "2", "--checks", "stack", "--progress"])
        assert code == 0
        assert "[1/1] executed verify:stack[0..2)" in capsys.readouterr().out

    def test_verify_jobs_matches_serial_output(self, capsys):
        args = ["verify", "--seeds", "4", "--checks", "stack,intervals"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_verify_campaign_path_exits_nonzero_on_divergence(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            StackDistanceTracker, "_access_block", _off_by_one_tracker()
        )
        # jobs=1 keeps execution in-process so the monkeypatch applies;
        # --chunk forces the campaign code path regardless.
        code = main(
            ["verify", "--seeds", "10", "--checks", "stack", "--chunk", "3"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out and "reproducer" in out


class TestRegretCommand:
    _ARGS = [
        "regret",
        "JOINT",
        "--dataset-gb",
        "2",
        "--rate-mb",
        "20",
        "--periods",
        "2",
        "--seed",
        "3",
    ]

    def test_regret_reports_the_oracle_gap(self, capsys):
        assert main(self._ARGS) == 0
        out = capsys.readouterr().out
        assert "regret report: JOINT" in out
        assert "vs OPT" in out
        assert "ratio" in out
        assert "lower" in out

    def test_regret_fixed_method(self, capsys):
        args = list(self._ARGS)
        args[1] = "2TFM-8GB"
        assert main(args) == 0
        assert "regret report: 2TFM-8GB" in capsys.readouterr().out

    def test_verify_quick_flag(self, capsys):
        code = main(["verify", "--quick", "--checks", "optimal"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal" in out and "PASS" in out

    def test_verify_quick_conflicts_yield_to_explicit_values(self, capsys):
        # --quick only fills in defaults; explicit --seeds still wins.
        code = main(["verify", "--quick", "--seeds", "2", "--checks", "stack"])
        assert code == 0
        assert "2 seed(s)" in capsys.readouterr().out


class TestCampaignCommand:
    def test_campaign_runs_prints_and_caches(self, capsys, tmp_path):
        args = [
            "campaign",
            "fig5",
            "--profile",
            "quick",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--out",
            str(tmp_path / "campaign.json"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out
        assert "campaign" in out and "hit ratio" in out

        import json

        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "cache hits    1" in warm_out
        telemetry = json.loads((tmp_path / "campaign.json").read_text())
        assert telemetry["hit_ratio"] >= 0.95

    def test_campaign_resume(self, capsys, tmp_path):
        base = [
            "campaign",
            "fig5",
            "--profile",
            "quick",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(base + ["--run-id", "r1"]) == 0
        capsys.readouterr()
        for entry in (tmp_path / "cache" / "objects").rglob("*.json"):
            entry.unlink()
        assert main(base + ["--resume", "r1"]) == 0
        assert "journal hits  1" in capsys.readouterr().out

    def test_campaign_unknown_name_fails_fast(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["campaign", "fig99", "--no-cache"])

    def test_experiment_with_jobs_uses_campaign(self, capsys, tmp_path):
        args = [
            "experiment",
            "fig5",
            "--profile",
            "quick",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out and "campaign" in out


class TestFleetCommand:
    _ARGS = ["fleet", "--tenants", "2", "--shards", "2", "--periods", "1"]
    _LAYOUTS = {
        "sim": ["--layout", "sim", "--disks-per-shard", "1"],
        "migrating": ["--layout", "migrating"],
    }

    @staticmethod
    def _energy_line(out):
        (line,) = [row for row in out.splitlines() if "total energy" in row]
        return line

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_fleet_report_telemetry_and_monolithic_parity(
        self, capsys, tmp_path, layout
    ):
        import json

        args = self._ARGS + self._LAYOUTS[layout]
        out_path = tmp_path / "fleet.json"
        assert main(args + ["--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fleet ")
        for line in ("total energy", "sleeping disks", "shard replay"):
            assert line in out
        assert "hit ratio" in out and "shard task(s)" in out
        telemetry = json.loads(out_path.read_text())
        assert telemetry["failures"] == 0
        assert telemetry["fleet"]["shard_tasks"] >= 1
        assert telemetry["fleet"]["tenants"] == 2

        assert main(args + ["--monolithic"]) == 0
        mono = capsys.readouterr().out
        assert "campaign" not in mono
        assert self._energy_line(mono) == self._energy_line(out)
