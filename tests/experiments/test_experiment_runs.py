"""Each experiment runner end-to-end on a minimal profile.

These are structural smoke tests (row schema, label coverage, value
sanity); the paper-shape assertions live in the benchmarks, which run
the full profile.

Each test also compares a digest of the whole result (name, title,
notes and every row, in column order) with ``pinned_results.json``, and
the task payloads of every registered plan are pinned beside them.  The
digests were recorded at commit 1c5a952, where each grid experiment
still assembled its own rows, so a change of any cell, column order,
title or note -- or of any task a plan emits (and so of its cache key)
-- shows up here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import (
    ablation,
    hw_sensitivity,
    idle_fit,
    fig5_pareto,
    fig7_dataset,
    fig8_popularity,
    fig8_rate,
    fig9_timeseries,
    table3_accesses,
    table4_period,
    table5_bank,
    writes,
)
from repro.campaign.hashing import digest
from repro.campaign.plan import run_plan
from repro.experiments.base import ExperimentConfig
from repro.experiments.registry import get_plan, list_experiments

PINNED = json.loads(
    (Path(__file__).with_name("pinned_results.json")).read_text()
)


def _digest(result):
    """SHA-256 over the result's labels and its rows in column order."""
    record = [
        result.name,
        result.title,
        result.notes,
        [list(row.items()) for row in result.rows],
    ]
    return hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def mini():
    return ExperimentConfig(
        scale=1024,
        period_s=120.0,
        warmup_periods=1,
        measure_periods=2,
        dataset_gb=4.0,
        data_rate_mb=50.0,
        fm_sizes_gb=[8, 128],
    )


class TestFig5:
    def test_rows_and_schema(self, mini):
        result = fig5_pareto.run(mini)
        assert result.name == "fig5"
        assert len(result.rows) == 2
        for row in result.rows:
            assert set(row) >= {"alpha", "alpha_mom", "t_opt_eq5_s"}
        assert "Pareto" in result.render()
        assert _digest(result) == PINNED["results"]["fig5"]


class TestFig7:
    def test_single_point_sweep(self, mini):
        result = run_plan(
            fig7_dataset.EXPERIMENT.plan(mini, datasets_gb=[4.0])
        )
        labels = {row["method"] for row in result.rows}
        assert "JOINT" in labels and "ALWAYS-ON" in labels
        # joint + 2 disks x (2 FM + PD + DS) + always-on = 10
        assert len(result.rows) == 10
        base = next(r for r in result.rows if r["method"] == "ALWAYS-ON")
        assert base["total_energy"] == pytest.approx(1.0)
        assert _digest(result) == PINNED["results"]["fig7"]


class TestTable3:
    def test_counts_structure(self, mini):
        result = run_plan(
            table3_accesses.EXPERIMENT.plan(mini, datasets_gb=[4.0])
        )
        methods = [row["method"] for row in result.rows]
        assert methods[-1] == "MA (memory accesses)"
        ma = result.rows[-1]["4GB"]
        for row in result.rows[:-1]:
            assert 0 <= row["4GB"] <= ma
        assert _digest(result) == PINNED["results"]["table3"]


class TestFig8:
    def test_rate_sweep(self, mini):
        result = run_plan(fig8_rate.EXPERIMENT.plan(mini, rates_mb=[20.0]))
        assert {row["rate_mb_s"] for row in result.rows} == {20.0}
        assert all(0 <= row["total_energy"] <= 1.5 for row in result.rows)
        assert _digest(result) == PINNED["results"]["fig8rate"]

    def test_popularity_sweep(self, mini):
        result = run_plan(
            fig8_popularity.EXPERIMENT.plan(mini, popularities=[0.2])
        )
        assert {row["popularity"] for row in result.rows} == {0.2}
        assert _digest(result) == PINNED["results"]["fig8pop"]


class TestSensitivity:
    def test_period_sweep(self, mini):
        result = run_plan(
            table4_period.EXPERIMENT.plan(mini, periods_min=[2.0, 4.0])
        )
        assert [row["period_min"] for row in result.rows] == [2.0, 4.0]
        assert all(row["total_energy"] > 0 for row in result.rows)
        assert _digest(result) == PINNED["results"]["table4"]

    def test_bank_sweep(self, mini):
        result = run_plan(
            table5_bank.EXPERIMENT.plan(mini, banks_mb=[16, 256])
        )
        assert [row["bank_mb"] for row in result.rows] == [16, 256]
        assert _digest(result) == PINNED["results"]["table5"]


class TestFig9:
    def test_timeseries_rows(self, mini):
        result = fig9_timeseries.run(mini, memories_gb=[8], num_periods=3)
        assert {row["memory_gb"] for row in result.rows} == {8}
        # One of the three periods is warm-up; two are measured.
        assert len(result.rows) == 3 - mini.warmup_periods
        assert "variation" in result.notes
        assert _digest(result) == PINNED["results"]["fig9"]


class TestWrites:
    def test_write_sweep_rows(self, mini):
        result = run_plan(
            writes.EXPERIMENT.plan(mini, write_fractions=[0.0, 0.2])
        )
        fractions = {row["write_fraction"] for row in result.rows}
        assert fractions == {0.0, 0.2}
        zero = [r for r in result.rows if r["write_fraction"] == 0.0]
        assert all(r["writeback_pages"] == 0 for r in zero)
        assert _digest(result) == PINNED["results"]["writes"]


class TestHwSensitivity:
    def test_variant_rows(self, mini):
        plan = hw_sensitivity.EXPERIMENT.plan(
            mini, variants=[("paper", 1.0, 1.0), ("laptop-disk", 1.0, None)]
        )
        result = run_plan(plan)
        variants = {row["variant"] for row in result.rows}
        assert variants == {"paper", "laptop-disk"}
        laptop = next(r for r in result.rows if r["variant"] == "laptop-disk")
        assert laptop["break_even_time_s"] == 6.0
        assert _digest(result) == PINNED["results"]["hwsens"]


class TestIdleFit:
    def test_histogram_rows(self, mini):
        result = idle_fit.run(mini, memories_gb=[2.0])
        assert {row["memory_gb"] for row in result.rows} == {2.0}
        assert sum(row["intervals"] for row in result.rows) > 0
        shares = sum(row["share_of_idle_time"] for row in result.rows)
        assert shares == pytest.approx(1.0, abs=0.02)
        assert _digest(result) == PINNED["results"]["idlefit"]


class TestAblation:
    def test_variant_rows(self, mini):
        result = run_plan(ablation.EXPERIMENT.plan(mini, datasets_gb=[4.0]))
        variants = {row["variant"] for row in result.rows}
        assert variants == {
            "JOINT",
            "JOINT-NC",
            "JOINT-MEM",
            "JOINT-TO",
            "ALWAYS-ON",
        }
        assert _digest(result) == PINNED["results"]["ablation"]


@pytest.mark.parametrize("name", list_experiments())
def test_plan_tasks_pinned(mini, name):
    # A task's cache key hashes its payload with the code fingerprint,
    # so the payloads are what must not move across a refactor.
    tasks = get_plan(name, mini).tasks
    assert digest([task.payload() for task in tasks]) == PINNED["plans"][name]
