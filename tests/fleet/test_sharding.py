"""Sharded fleet decomposition: hashing, trace merge, report merge."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.campaign.tasks import WorkloadSpec
from repro.errors import CampaignError, ConfigError, SimulationError
from repro.fleet.sharding import (
    TENANT_FILE_SPAN,
    FleetReport,
    FleetSpec,
    fleet_plan,
    merge_tenant_traces,
    run_fleet_monolithic,
    shard_of,
    tenant_page_span,
)
from repro.policies.registry import parse_method
from repro.traces.trace import Trace


def _tenants(machine, count=3, duration=240.0):
    return tuple(
        WorkloadSpec.for_machine(
            machine,
            dataset_gb=1.0,
            rate_mb=2.0,
            popularity=0.8,
            duration_s=duration,
            seed=900 + i,
        )
        for i in range(count)
    )


def _spec(machine, **overrides):
    defaults = dict(
        machine=machine,
        method=parse_method("2TNAP"),
        tenants=_tenants(machine),
        num_shards=2,
        duration_s=240.0,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestShardAssignment:
    def test_stable_and_order_independent(self, fast_machine):
        tenants = _tenants(fast_machine, count=4)
        first = [shard_of(t, 3) for t in tenants]
        second = [shard_of(t, 3) for t in reversed(tenants)]
        assert first == list(reversed(second))
        assert all(0 <= s < 3 for s in first)

    def test_num_shards_validated(self, fast_machine):
        with pytest.raises(ConfigError):
            shard_of(_tenants(fast_machine)[0], 0)


class TestPageSpan:
    def test_covers_every_generated_page(self, fast_machine):
        tenants = _tenants(fast_machine)
        span = tenant_page_span(tenants)
        for tenant in tenants:
            trace = tenant.build()
            assert int(trace.pages.max()) < span

    def test_empty_tenants_rejected(self):
        with pytest.raises(ConfigError):
            tenant_page_span(())


class TestMergeTenantTraces:
    def test_offsets_and_time_order(self, fast_machine):
        tenants = _tenants(fast_machine, count=2)
        span = tenant_page_span(tenants)
        merged = merge_tenant_traces(tenants, (0, 1), span, fast_machine.page_bytes)
        assert np.all(np.diff(merged.times) >= 0)
        own = merged.pages // span
        assert set(own.tolist()) == {0, 1}
        assert merged.meta["source"] == "fleet-shard"
        # File ids stay tenant-distinct too.
        assert merged.files is not None
        assert set((merged.files // TENANT_FILE_SPAN).tolist()) == {0, 1}

    def test_global_indices_respected(self, fast_machine):
        tenants = _tenants(fast_machine, count=1)
        span = tenant_page_span(tenants)
        merged = merge_tenant_traces(tenants, (5,), span, fast_machine.page_bytes)
        assert int(merged.pages.min()) >= 5 * span

    def test_span_overflow_is_an_error(self, fast_machine):
        tenants = _tenants(fast_machine, count=1)
        with pytest.raises(SimulationError):
            merge_tenant_traces(tenants, (0,), 1, fast_machine.page_bytes)

    @pytest.mark.parametrize(
        "pages, index, span, what",
        [
            ([5, 2**62], 1, 3 * 2**61, "pages"),
            ([5, 6], 2**31, 10, "file ids"),
        ],
    )
    def test_int64_overflow_after_offset_is_an_error(self, pages, index, span, what):
        """numpy would wrap the offset sum silently into colliding or
        negative ids; the merge names the tenant instead."""
        trace = Trace(
            times=np.array([0.0, 1.0]),
            pages=np.array(pages, dtype=np.int64),
            files=np.array([5, 6], dtype=np.int64),
            page_size=4096,
        )
        tenant = SimpleNamespace(build=lambda: trace)
        with pytest.raises(SimulationError, match=f"tenant {index}'s {what}"):
            merge_tenant_traces([tenant], (index,), span, 4096)

    def test_misaligned_indices_rejected(self, fast_machine):
        tenants = _tenants(fast_machine, count=2)
        with pytest.raises(SimulationError):
            merge_tenant_traces(tenants, (0,), 10**6, fast_machine.page_bytes)


class TestFleetSpec:
    def test_validation(self, fast_machine):
        with pytest.raises(ConfigError):
            _spec(fast_machine, num_shards=0)
        with pytest.raises(ConfigError):
            _spec(fast_machine, tenants=())
        with pytest.raises(ConfigError):
            _spec(fast_machine, duration_s=0.0)
        with pytest.raises(ConfigError):
            _spec(fast_machine, layout="raid5")
        with pytest.raises(ConfigError):
            _spec(fast_machine, disks_per_shard=2)  # "sim" is single-disk
        writer = WorkloadSpec.for_machine(
            fast_machine, 1.0, 2.0, 0.8, 240.0, seed=1, write_fraction=0.5
        )
        with pytest.raises(ConfigError):
            _spec(fast_machine, tenants=(writer,))

    def test_tasks_cover_every_tenant_once(self, fast_machine):
        spec = _spec(fast_machine, num_shards=3)
        tasks = spec.tasks()
        seen = [i for task in tasks for i in task.tenant_indices]
        assert sorted(seen) == list(range(len(spec.tenants)))
        for task in tasks:
            assert task.key  # content-hashed and cacheable

    def test_task_keys_are_reproducible(self, fast_machine):
        # Two independently built specs hash to the same task keys; a
        # shard-shape change (layout) changes every key.
        keys = {t.key for t in _spec(fast_machine).tasks()}
        assert keys == {t.key for t in _spec(fast_machine).tasks()}
        multi = _spec(fast_machine, layout="partitioned", disks_per_shard=2)
        assert keys.isdisjoint(t.key for t in multi.tasks())


class TestFanout:
    @pytest.mark.parametrize("layout,disks", [("sim", 1), ("migrating", 2)])
    def test_sharded_matches_monolithic(self, fast_machine, layout, disks):
        spec = _spec(
            fast_machine, layout=layout, disks_per_shard=disks, num_shards=3
        )
        monolithic = run_fleet_monolithic(spec)
        plan = fleet_plan(spec)
        payloads = [
            json.loads(json.dumps(task.execute())) for task in plan.tasks
        ]
        fanout = plan.assemble(payloads)
        expected = monolithic.to_payload()
        actual = fanout.to_payload()
        expected.pop("replay_modes")
        actual.pop("replay_modes")
        assert actual == expected

    def test_assemble_rejects_shape_mismatch(self, fast_machine):
        plan = fleet_plan(_spec(fast_machine))
        with pytest.raises(CampaignError):
            plan.assemble([])

    def test_assemble_rejects_missing_payload(self, fast_machine):
        plan = fleet_plan(_spec(fast_machine))
        with pytest.raises(CampaignError):
            plan.assemble([None] * len(plan.tasks))


class TestCampaignTelemetry:
    def test_fleet_counters_reach_the_campaign_report(self, fast_machine):
        from repro.campaign.executor import run_campaign

        spec = _spec(fast_machine, layout="migrating", disks_per_shard=2)
        plan = fleet_plan(spec)
        report = run_campaign(plan.tasks)
        assert report.ok
        fleet = report.fleet_summary()
        assert fleet is not None
        assert fleet["shard_tasks"] == len(plan.tasks)
        assert fleet["tenants"] == len(spec.tenants)
        merged = plan.assemble(report.payloads())
        assert fleet["pages_migrated"] == merged.pages_migrated
        assert fleet["migration_energy_j"] == pytest.approx(
            merged.migration_energy_j
        )
        assert report.replay_mode_counts() == {"multidisk": len(plan.tasks)}
        assert report.telemetry()["fleet"] == fleet
        assert "shard task(s)" in report.render_summary()

    def test_sim_only_campaigns_have_no_fleet_block(self, fast_machine):
        from repro.campaign.executor import run_campaign

        plan = fleet_plan(_spec(fast_machine))  # layout "sim"
        report = run_campaign(plan.tasks)
        assert report.ok
        fleet = report.fleet_summary()
        # "sim" shards are still fleet-shard tasks, just single-disk
        # kernel replays; migration stays zero.
        assert fleet is not None and fleet["pages_migrated"] == 0
        modes = report.replay_mode_counts()
        assert "multidisk" not in modes


class TestFleetReport:
    def _report(self, fast_machine):
        return run_fleet_monolithic(_spec(fast_machine, num_shards=3))

    def test_round_trip(self, fast_machine):
        report = self._report(fast_machine)
        payload = json.loads(json.dumps(report.to_payload()))
        again = FleetReport.from_payload(payload)
        assert again == report
        assert again.to_payload() == report.to_payload()

    def test_unpopulated_shards_sleep(self, fast_machine):
        # More shards than tenants guarantees empty ones.
        spec = _spec(fast_machine, num_shards=8)
        report = run_fleet_monolithic(spec)
        assert report.num_disks == 8
        idle = [
            fraction
            for count, fraction in zip(
                report.shard_tenants, report.standby_fractions
            )
            if count == 0
        ]
        assert idle and all(f == 1.0 for f in idle)
        assert report.replay_modes.count("idle") == report.shard_tenants.count(0)

    def test_render_mentions_the_essentials(self, fast_machine):
        report = self._report(fast_machine)
        text = report.render()
        assert "tenant(s)" in text
        assert "sleeping disks" in text
        assert "shard replay" in text

    def test_merge_validates_alignment(self):
        with pytest.raises(CampaignError):
            FleetReport.merge("x", [None], [1, 1], 100.0)
