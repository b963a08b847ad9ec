"""Grid plans: decomposition, reassembly, and experiment plan parity."""

from __future__ import annotations

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.plan import (
    CampaignPlan,
    GridPoint,
    grid_tasks,
    resolve_methods,
    run_plan,
    split_by_point,
)
from repro.campaign.tasks import WorkloadSpec
from repro.errors import CampaignError


@pytest.fixture(scope="module")
def points(fast_machine):
    methods = resolve_methods(["JOINT", "ALWAYS-ON"])
    return [
        GridPoint(
            machine=fast_machine,
            workload=WorkloadSpec.for_machine(
                fast_machine,
                dataset_gb=dataset_gb,
                rate_mb=20.0,
                popularity=0.2,
                duration_s=240.0,
                seed=10 + index,
            ),
            methods=methods,
            duration_s=240.0,
            warmup_s=120.0,
            meta=(("dataset_gb", dataset_gb),),
        )
        for index, dataset_gb in enumerate([2.0, 4.0])
    ]


class TestGridDecomposition:
    def test_point_major_method_order(self, points):
        tasks = grid_tasks(points)
        assert [t.method.label for t in tasks] == [
            "JOINT",
            "ALWAYS-ON",
            "JOINT",
            "ALWAYS-ON",
        ]
        assert tasks[0].workload == points[0].workload
        assert tasks[2].workload == points[1].workload

    def test_split_is_inverse_of_flatten(self, points):
        tasks = grid_tasks(points)
        payloads = [task.execute() for task in tasks]
        grouped = split_by_point(points, payloads)
        assert [point for point, _ in grouped] == list(points)
        for _, by_label in grouped:
            assert list(by_label) == ["JOINT", "ALWAYS-ON"]

    def test_missing_payload_raises(self, points):
        tasks = grid_tasks(points)
        payloads = [task.execute() for task in tasks]
        payloads[1] = None
        with pytest.raises(CampaignError, match="missing result"):
            split_by_point(points, payloads)

    def test_shape_mismatch_raises(self, points):
        tasks = grid_tasks(points)
        payloads = [task.execute() for task in tasks]
        with pytest.raises(CampaignError, match="shape mismatch"):
            split_by_point(points, payloads + payloads[-1:])


class _FailingTask:
    kind = "sim"
    key = "failing-task"

    def describe(self):
        return "sim:failing"

    def execute(self):
        raise ValueError("boom")


class TestRunPlan:
    def test_options_reach_run_campaign(self, points):
        plan = CampaignPlan(
            tasks=grid_tasks(points[:1]),
            assemble=lambda payloads: len(payloads),
        )
        seen = []

        def on_progress(record, done, total):
            seen.append((record.label, done, total))

        assert run_plan(plan, jobs=1, on_progress=on_progress) == 2
        assert [(done, total) for _, done, total in seen] == [(1, 2), (2, 2)]
        assert seen[0][0].startswith("sim:JOINT")

    def test_failed_task_raises_campaign_error(self):
        plan = CampaignPlan(tasks=[_FailingTask()], assemble=list)
        with pytest.raises(CampaignError, match="sim:failing: ValueError: boom"):
            run_plan(plan, retries=0)


class TestExperimentPlans:
    """Every registered experiment must split and reassemble losslessly."""

    def test_grid_experiment_campaign_equals_direct_run(self, mini_config):
        from repro.experiments import ablation
        from repro.experiments.registry import get_plan

        direct = run_plan(
            ablation.EXPERIMENT.plan(mini_config, datasets_gb=[4.0])
        )
        plan = get_plan("ablation", mini_config)
        # ablation's default datasets differ; re-plan with the same subset.
        plan = ablation.EXPERIMENT.plan(mini_config, datasets_gb=[4.0])
        report = run_campaign(plan.tasks, jobs=1)
        assert report.ok
        assembled = plan.assemble(report.payloads())
        assert assembled.rows == direct.rows
        assert assembled.title == direct.title

    def test_atomic_experiment_fallback(self, mini_config):
        from repro.experiments import fig5_pareto
        from repro.experiments.registry import get_plan

        plan = get_plan("fig5", mini_config)
        assert len(plan.tasks) == 1
        assert plan.tasks[0].kind == "experiment"
        result = run_plan(plan)
        assert result.rows == fig5_pareto.run(mini_config).rows


@pytest.fixture(scope="module")
def mini_config():
    from repro.experiments.base import ExperimentConfig

    return ExperimentConfig(
        scale=1024,
        period_s=120.0,
        warmup_periods=1,
        measure_periods=2,
        dataset_gb=4.0,
        data_rate_mb=50.0,
        fm_sizes_gb=[8, 128],
    )
