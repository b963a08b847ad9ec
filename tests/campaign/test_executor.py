"""The campaign executor: fan-out, caching, resume, retry, telemetry.

The fake tasks live at module top level so worker processes can
unpickle them; the flaky/crashy ones coordinate through marker files
because worker state does not survive the round trip.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign import executor
from repro.campaign.executor import (
    SOURCE_CACHE,
    SOURCE_DEDUP,
    SOURCE_EXECUTED,
    SOURCE_JOURNAL,
    run_campaign,
)
from repro.campaign.hashing import task_key
from repro.campaign.journal import JOURNAL_NAME
from repro.errors import CampaignError, ConfigError


@dataclass(frozen=True)
class AddTask:
    """A trivial deterministic task."""

    a: int
    b: int

    kind = "add"

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "a": self.a, "b": self.b}

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return f"add:{self.a}+{self.b}"

    def execute(self) -> Dict[str, Any]:
        return {"sum": self.a + self.b}


@dataclass(frozen=True)
class FlakyTask:
    """Fails its I/O until the marker file has recorded ``fail_times``
    attempts: a crash-like failure, which the executor retries."""

    marker: str
    fail_times: int

    kind = "flaky"

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "marker": self.marker}

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return f"flaky:{Path(self.marker).name}"

    def execute(self) -> Dict[str, Any]:
        path = Path(self.marker)
        count = int(path.read_text()) if path.exists() else 0
        if count < self.fail_times:
            path.write_text(str(count + 1))
            raise OSError(f"flaky failure #{count + 1}")
        return {"ok": True}


@dataclass(frozen=True)
class BadConfigTask:
    """Counts its attempts in the marker file, then raises ``ConfigError``:
    a deterministic failure that no retry can mend."""

    marker: str

    kind = "bad-config"

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "marker": self.marker}

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return f"bad-config:{Path(self.marker).name}"

    def execute(self) -> Dict[str, Any]:
        path = Path(self.marker)
        path.write_text(str(int(path.read_text()) + 1 if path.exists() else 1))
        raise ConfigError("invalid point")


@dataclass(frozen=True)
class LoggedTask:
    """Appends ``("execute", name)`` to ``EVENTS`` when it runs (serial
    runs only: the log lives in this process)."""

    name: str

    kind = "logged"

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name}

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return self.name

    def execute(self) -> Dict[str, Any]:
        EVENTS.append(("execute", self.name))
        return {"name": self.name}


EVENTS: list = []


@dataclass(frozen=True)
class CrashTask:
    """Kills its worker process outright on the first attempt."""

    marker: str

    kind = "crash"

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "marker": self.marker}

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return f"crash:{Path(self.marker).name}"

    def execute(self) -> Dict[str, Any]:
        path = Path(self.marker)
        if not path.exists():
            path.write_text("died once")
            os._exit(13)  # no exception, no cleanup: the pool just breaks
        return {"survived": True}


@dataclass(frozen=True)
class SimLikeTask:
    """Mimics ``SimTask``'s payload shape for the replay-mode telemetry."""

    label: str
    mode: str  # "" = legacy payload without the replay_mode field

    kind = "sim"

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "label": self.label, "mode": self.mode}

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return f"sim:{self.label}"

    def execute(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {"label": self.label}
        if self.mode:
            summary["replay_mode"] = self.mode
        return {"kind": "sim", "summary": summary}


class TestSerialExecution:
    def test_payloads_align_with_tasks(self):
        tasks = [AddTask(1, 2), AddTask(3, 4)]
        report = run_campaign(tasks)
        assert report.ok
        assert report.payloads() == [{"sum": 3}, {"sum": 7}]
        assert report.stats.executed == 2

    def test_duplicate_tasks_execute_once(self):
        tasks = [AddTask(1, 2), AddTask(1, 2), AddTask(1, 2)]
        report = run_campaign(tasks)
        assert report.payloads() == [{"sum": 3}] * 3
        assert report.stats.unique == 1
        assert report.stats.executed == 1
        assert report.stats.dedup_hits == 2
        assert [r.source for r in report.records] == [
            SOURCE_EXECUTED,
            SOURCE_DEDUP,
            SOURCE_DEDUP,
        ]

    def test_progress_follows_each_task_before_the_next_runs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign([LoggedTask("cached")], cache=cache)
        EVENTS.clear()
        ticks = []

        def progress(record, done, total):
            EVENTS.append(("progress", record.label))
            ticks.append((done, total))

        tasks = [
            LoggedTask("a"), LoggedTask("cached"), LoggedTask("a"),
            LoggedTask("b"),
        ]
        report = run_campaign(tasks, cache=cache, on_progress=progress)
        assert [r.source for r in report.records] == [
            SOURCE_EXECUTED, SOURCE_CACHE, SOURCE_DEDUP, SOURCE_EXECUTED,
        ]
        assert EVENTS == [
            ("progress", "cached"),
            ("execute", "a"), ("progress", "a"),
            ("execute", "b"), ("progress", "b"),
        ]
        assert ticks == [(1, 3), (2, 3), (3, 3)]

    def test_invalid_arguments(self):
        with pytest.raises(CampaignError, match="jobs"):
            run_campaign([AddTask(1, 2)], jobs=0)
        with pytest.raises(CampaignError, match="retries"):
            run_campaign([AddTask(1, 2)], retries=-1)
        with pytest.raises(CampaignError, match="resume"):
            run_campaign([AddTask(1, 2)], resume="nope")


class TestCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = [AddTask(1, 2), AddTask(3, 4)]
        cold = run_campaign(tasks, cache=cache)
        warm = run_campaign(tasks, cache=cache)
        assert cold.stats.executed == 2 and cold.stats.hits == 0
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 2
        assert warm.stats.hit_ratio == 1.0
        assert warm.payloads() == cold.payloads()
        assert all(r.source == SOURCE_CACHE for r in warm.records)

    def test_cache_shared_across_overlapping_campaigns(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign([AddTask(1, 2)], cache=cache)
        report = run_campaign([AddTask(1, 2), AddTask(9, 9)], cache=cache)
        assert report.stats.cache_hits == 1
        assert report.stats.executed == 1


class TestResume:
    def test_resume_reuses_journal_not_recompute(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = [AddTask(1, 2), AddTask(3, 4)]
        first = run_campaign(tasks, cache=cache, run_id="runA")
        assert (first.run_dir / JOURNAL_NAME).is_file()
        # Burn the cache: only the journal can satisfy the resume.
        for entry in (tmp_path / "cache" / "objects").rglob("*.json"):
            entry.unlink()
        resumed = run_campaign(tasks, cache=cache, resume="runA")
        assert resumed.run_id == "runA"
        assert resumed.stats.executed == 0
        assert resumed.stats.journal_hits == 2
        assert resumed.payloads() == first.payloads()
        assert all(r.source == SOURCE_JOURNAL for r in resumed.records)

    def test_resume_executes_only_missing_tasks(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign([AddTask(1, 2)], cache=cache, run_id="runB")
        for entry in (tmp_path / "cache" / "objects").rglob("*.json"):
            entry.unlink()
        grown = run_campaign(
            [AddTask(1, 2), AddTask(5, 5)], cache=cache, resume="runB"
        )
        assert grown.stats.journal_hits == 1
        assert grown.stats.executed == 1
        assert grown.payloads() == [{"sum": 3}, {"sum": 10}]

    def test_resume_unknown_run_raises(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(CampaignError, match="nothing to resume"):
            run_campaign([AddTask(1, 2)], cache=cache, resume="ghost")


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(executor, "BACKOFF_S", 0.0)


@pytest.mark.usefixtures("no_backoff")
class TestRetries:
    def test_serial_retry_recovers(self, tmp_path):
        task = FlakyTask(marker=str(tmp_path / "flaky1"), fail_times=2)
        report = run_campaign([task], retries=2)
        assert report.ok
        assert report.records[0].attempts == 3
        assert report.stats.retries == 2

    def test_serial_retries_exhausted(self, tmp_path):
        task = FlakyTask(marker=str(tmp_path / "flaky2"), fail_times=5)
        report = run_campaign([task], retries=1)
        assert not report.ok
        assert report.stats.failures == 1
        assert "flaky failure" in report.failures()[0].error

    def test_failure_does_not_abort_campaign(self, tmp_path):
        bad = FlakyTask(marker=str(tmp_path / "flaky3"), fail_times=9)
        good = AddTask(2, 2)
        report = run_campaign([bad, good], retries=0)
        assert not report.ok
        assert report.payloads()[0] is None
        assert report.payloads()[1] == {"sum": 4}

    def test_parallel_retry_recovers(self, tmp_path):
        task = FlakyTask(marker=str(tmp_path / "flaky4"), fail_times=1)
        report = run_campaign([task, AddTask(1, 1)], jobs=2, retries=2)
        assert report.ok
        assert report.stats.retries == 1

    def test_worker_crash_recovers_on_fresh_pool(self, tmp_path):
        task = CrashTask(marker=str(tmp_path / "crash1"))
        report = run_campaign([task, AddTask(4, 4)], jobs=2, retries=2)
        assert report.ok
        crash_record = report.records[0]
        assert crash_record.payload == {"survived": True}
        assert crash_record.attempts >= 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_failure_runs_once(self, tmp_path, jobs):
        marker = tmp_path / f"bad{jobs}"
        report = run_campaign(
            [BadConfigTask(marker=str(marker)), AddTask(1, 1)],
            jobs=jobs, retries=2,
        )
        assert marker.read_text() == "1"
        assert report.records[0].attempts == 1
        assert report.records[0].error == "ConfigError: invalid point"
        assert report.stats.retries == 0
        assert report.payloads()[1] == {"sum": 2}


def test_run_plan_fails_fast_on_deterministic_error(tmp_path):
    import time

    from repro.campaign.plan import CampaignPlan, run_plan

    plan = CampaignPlan(
        tasks=[BadConfigTask(marker=str(tmp_path / "plan"))],
        assemble=lambda payloads: payloads,
    )
    start = time.monotonic()
    with pytest.raises(CampaignError, match="bad-config"):
        run_plan(plan)
    assert time.monotonic() - start < 0.2


class TestParallelEquivalence:
    def test_parallel_payloads_identical_to_serial(self):
        tasks = [AddTask(i, i + 1) for i in range(6)]
        serial = run_campaign(tasks, jobs=1)
        parallel = run_campaign(tasks, jobs=2)
        assert serial.ok and parallel.ok
        assert parallel.payloads() == serial.payloads()


class TestTelemetry:
    def test_summary_json_written(self, tmp_path):
        import json

        cache = ResultCache(tmp_path / "cache")
        report = run_campaign([AddTask(1, 2)], cache=cache, run_id="runT")
        summary = json.loads((report.run_dir / "campaign.json").read_text())
        assert summary["run_id"] == "runT"
        assert summary["tasks"] == 1
        assert summary["executed"] == 1
        assert summary["tasks_detail"][0]["kind"] == "add"
        assert summary["tasks_detail"][0]["wall_s"] >= 0.0

    def test_render_summary_mentions_counters(self):
        report = run_campaign([AddTask(1, 2), AddTask(1, 2)])
        text = report.render_summary()
        assert "2 task(s), 1 unique" in text
        assert "dedup hits    1" in text

    def test_replay_mode_counts(self):
        tasks = [
            SimLikeTask("a", "epoch"),
            SimLikeTask("b", "epoch"),
            SimLikeTask("c", "vectorized"),
            SimLikeTask("d", ""),  # pre-field cached payload -> scalar
            SimLikeTask("e", "missrun"),
            AddTask(1, 2),  # non-sim payloads never count
        ]
        report = run_campaign(tasks)
        counts = {"epoch": 2, "missrun": 1, "scalar": 1, "vectorized": 1}
        assert report.replay_mode_counts() == counts
        assert report.telemetry()["replay_modes"] == counts
        assert "replay modes  epoch=2 missrun=1 scalar=1 vectorized=1" in (
            report.render_summary()
        )

    def test_replay_modes_absent_without_sim_tasks(self):
        report = run_campaign([AddTask(1, 2)])
        assert report.replay_mode_counts() == {}
        assert "replay modes" not in report.render_summary()

    def test_sim_summary_payload_round_trip(self):
        from repro.campaign.tasks import SimSummary

        summary = SimSummary(
            label="JOINT", duration_s=1.0, memory_energy_j=1.0,
            disk_energy_j=1.0, total_accesses=1, disk_page_accesses=0,
            disk_requests=0, disk_write_pages=0, mean_latency_s=0.0,
            long_latency=0, wake_long_latency=0, spin_down_cycles=0,
            utilization=0.0, replay_mode="epoch",
        )
        payload = summary.to_payload()
        assert payload["replay_mode"] == "epoch"
        assert SimSummary.from_payload(payload) == summary
        # Payloads cached before the field existed still load (scalar).
        legacy = dict(payload)
        del legacy["replay_mode"]
        assert SimSummary.from_payload(legacy).replay_mode == "scalar"

    def test_missrun_mode_flows_end_to_end(self, fast_machine):
        """A real request-blind SimTask lands as missrun in the rollup."""
        from repro.campaign.tasks import SimTask, WorkloadSpec
        from repro.policies.registry import parse_method

        workload = WorkloadSpec.for_machine(
            fast_machine,
            dataset_gb=2.0,
            rate_mb=20.0,
            popularity=0.2,
            duration_s=240.0,
            seed=3,
        )
        task = SimTask(
            method=parse_method("2TFM-4GB"),
            machine=fast_machine,
            workload=workload,
            duration_s=240.0,
        )
        report = run_campaign([task])
        assert report.ok
        assert report.replay_mode_counts() == {"missrun": 1}
        summary = report.payloads()[0]["summary"]
        assert summary["replay_mode"] == "missrun"

    def test_trace_builds_reported(self, tmp_path, fast_machine):
        """Serial runs count the traces their tasks built; pools report none."""
        import json

        from repro.campaign.tasks import SimTask, WorkloadSpec
        from repro.policies.registry import parse_method

        workload = WorkloadSpec.for_machine(
            fast_machine, dataset_gb=2.0, rate_mb=20.0, popularity=0.2,
            duration_s=240.0, seed=3,
        )
        tasks = [
            SimTask(
                method=parse_method(name), machine=fast_machine,
                workload=workload, duration_s=240.0,
            )
            for name in ("2TFM-4GB", "ALWAYS-ON")
        ]
        cache = ResultCache(tmp_path / "cache")
        report = run_campaign(tasks, cache=cache, run_id="built")
        assert report.ok and report.stats.trace_builds == 1
        summary = json.loads((report.run_dir / "campaign.json").read_text())
        assert summary["trace_builds"] == 1

        warm = run_campaign(tasks, cache=cache)
        assert warm.stats.executed == 0 and warm.stats.trace_builds == 0

        pooled = run_campaign([AddTask(1, 2), AddTask(2, 3)], jobs=2)
        assert pooled.ok and pooled.stats.trace_builds is None
        assert pooled.telemetry()["trace_builds"] is None
