"""Trace sharing: the tasks of one campaign run share one built trace.

``SimTask.execute`` takes its trace from a one-entry memo keyed by the
``WorkloadSpec``.  The memo lives for one ``run_campaign`` call only, and
the shared trace is frozen so no task can change another task's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List

import pytest

from repro.campaign import tasks as campaign_tasks
from repro.campaign.executor import run_campaign
from repro.campaign.hashing import task_key
from repro.campaign.plan import GridPoint, grid_tasks, resolve_methods
from repro.campaign.tasks import WorkloadSpec

#: The memo each RaisingTask saw while it ran.
SEEN: List[Any] = []


@dataclass(frozen=True)
class RaisingTask:
    """Takes the shared trace, then fails."""

    workload: WorkloadSpec

    kind = "raising"

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "seed": self.workload.seed}

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return "raising"

    def execute(self) -> Dict[str, Any]:
        SEEN.append(campaign_tasks._shared)
        campaign_tasks.shared_trace(self.workload)
        raise RuntimeError("task failed on purpose")


def _workload(machine, seed: int = 21) -> WorkloadSpec:
    return WorkloadSpec.for_machine(
        machine, dataset_gb=2.0, rate_mb=20.0, popularity=0.2,
        duration_s=240.0, seed=seed,
    )


def _point(machine, seed: int = 21) -> GridPoint:
    return GridPoint(
        machine=machine,
        workload=_workload(machine, seed),
        methods=resolve_methods(["JOINT", "2TFM-8GB", "ADFM-8GB", "ALWAYS-ON"]),
        duration_s=240.0,
        warmup_s=120.0,
    )


@pytest.fixture
def builds(monkeypatch) -> List[WorkloadSpec]:
    """Every ``WorkloadSpec.build`` call, by spec."""
    calls: List[WorkloadSpec] = []
    original = WorkloadSpec.build

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(WorkloadSpec, "build", counting)
    return calls


@pytest.fixture
def traces(monkeypatch) -> List[Any]:
    """The trace every ``run_method`` call replayed."""
    from repro.sim import runner

    seen: List[Any] = []
    original = runner.run_method

    def capture(method, trace, *args, **kwargs):
        seen.append(trace)
        return original(method, trace, *args, **kwargs)

    monkeypatch.setattr(runner, "run_method", capture)
    return seen


class TestMemoScope:
    def test_one_point_builds_once(self, fast_machine, builds):
        report = run_campaign(grid_tasks([_point(fast_machine)]))
        assert report.ok and report.stats.executed == 4
        assert len(builds) == 1
        assert report.stats.trace_builds == 1

    def test_each_point_builds_once(self, fast_machine, builds):
        points = [_point(fast_machine, seed) for seed in (21, 22)]
        report = run_campaign(grid_tasks(points))
        assert report.ok
        assert [spec.seed for spec in builds] == [21, 22]

    def test_nothing_survives_a_run(self, fast_machine, builds):
        tasks = grid_tasks([_point(fast_machine)])
        assert run_campaign(tasks).ok
        assert campaign_tasks._shared is None
        assert run_campaign(grid_tasks([_point(fast_machine)])).ok
        assert len(builds) == 2

    def test_memo_empty_after_a_task_raises(self, fast_machine):
        SEEN.clear()
        report = run_campaign([RaisingTask(_workload(fast_machine))], retries=0)
        assert not report.ok
        assert "task failed on purpose" in report.records[0].error
        (memo,) = SEEN
        assert memo is not None and memo.builds == 1
        assert memo.entry is None
        assert campaign_tasks._shared is None

    def test_tasks_outside_a_campaign_build_their_own(self, fast_machine, builds):
        task = grid_tasks([_point(fast_machine)])[0]
        task.execute()
        task.execute()
        assert len(builds) == 2


class TestSharedTraceIsFrozen:
    def test_arrays_read_only_and_shared(self, fast_machine, traces):
        assert run_campaign(grid_tasks([_point(fast_machine)])).ok
        assert len(traces) == 4
        shared = traces[0]
        assert all(trace is shared for trace in traces)
        assert shared.immutable
        for array in (shared.times, shared.pages, shared.files):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]
