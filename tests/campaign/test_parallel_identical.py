"""Acceptance: parallel == serial, and resume never recomputes.

These are the subsystem's two headline guarantees, tested end to end on
real simulation tasks rather than fakes.
"""

from __future__ import annotations

from repro.campaign.cache import ResultCache
from repro.campaign.executor import run_campaign
from repro.experiments.base import ExperimentConfig
from repro.sim.sweep import sweep


def _mini_config() -> ExperimentConfig:
    return ExperimentConfig(
        scale=1024,
        period_s=120.0,
        warmup_periods=1,
        measure_periods=2,
        dataset_gb=4.0,
        data_rate_mb=50.0,
        fm_sizes_gb=[8, 128],
    )


class TestParallelIdentical:
    def test_sweep_rows_byte_identical_across_jobs(self, fast_machine):
        kwargs = dict(
            methods=["JOINT", "2TFM-8GB"],
            grid={"dataset_gb": [2.0, 4.0]},
            duration_s=240.0,
            warmup_s=120.0,
            defaults={"rate_mb": 20.0, "popularity": 0.2},
        )
        serial = sweep(fast_machine, **kwargs)
        parallel = sweep(fast_machine, jobs=2, **kwargs)
        assert parallel == serial

    def test_experiment_rows_byte_identical_across_jobs(self):
        from repro.experiments import writes

        plan = writes.EXPERIMENT.plan(
            _mini_config(), write_fractions=[0.0, 0.1]
        )
        serial = run_campaign(plan.tasks, jobs=1)
        parallel = run_campaign(plan.tasks, jobs=2)
        assert serial.ok and parallel.ok
        assert parallel.payloads() == serial.payloads()
        assert (
            plan.assemble(parallel.payloads()).rows
            == plan.assemble(serial.payloads()).rows
        )


    def test_shared_trace_payloads_identical_across_jobs(self, fast_machine):
        """One point, several methods: the serial run shares one trace
        between its tasks, each pool worker builds its own."""
        from repro.campaign.plan import GridPoint, grid_tasks, resolve_methods
        from repro.campaign.tasks import WorkloadSpec

        point = GridPoint(
            machine=fast_machine,
            workload=WorkloadSpec.for_machine(
                fast_machine, dataset_gb=2.0, rate_mb=20.0, popularity=0.2,
                duration_s=240.0, seed=5,
            ),
            methods=resolve_methods(
                ["JOINT", "2TFM-8GB", "ADPD", "2TDS", "ALWAYS-ON"]
            ),
            duration_s=240.0,
            warmup_s=120.0,
        )
        tasks = grid_tasks([point])
        serial = run_campaign(tasks, jobs=1)
        parallel = run_campaign(tasks, jobs=2)
        assert serial.ok and parallel.ok
        assert serial.stats.trace_builds == 1
        assert parallel.payloads() == serial.payloads()


class TestResumeRecomputesNothing:
    def test_completed_tasks_all_come_back_cached(self, tmp_path):
        from repro.experiments import ablation

        plan = ablation.EXPERIMENT.plan(_mini_config(), datasets_gb=[4.0])
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign(plan.tasks, cache=cache, run_id="seed-run")
        assert first.ok and first.stats.executed == len(plan.tasks)

        resumed = run_campaign(plan.tasks, cache=cache, resume="seed-run")
        assert resumed.ok
        assert resumed.stats.executed == 0
        assert resumed.stats.journal_hits == len(plan.tasks)
        assert resumed.stats.hit_ratio == 1.0
        assert resumed.payloads() == first.payloads()

    def test_warm_cache_hit_ratio_meets_acceptance_bar(self, tmp_path):
        from repro.experiments import ablation

        plan = ablation.EXPERIMENT.plan(_mini_config(), datasets_gb=[4.0])
        cache = ResultCache(tmp_path / "cache")
        run_campaign(plan.tasks, cache=cache)
        warm = run_campaign(plan.tasks, cache=cache)
        assert warm.stats.hit_ratio >= 0.95
