"""The fleet engine: multidisk parity, migration accounting, telemetry."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fleet.engine import FleetEngine, FleetResult
from repro.fleet.layout import (
    MigratingLayout,
    PartitionedLayout,
    StripedLayout,
)
from repro.memory.system import NapMemorySystem
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.policies.pareto_timeout import ParetoTimeoutPolicy
from repro.traces.trace import Trace
from repro.units import MB
from repro.verify.fleet import MultiDiskEngine


def _memory(machine):
    # Smaller than the 40-page hot set (160 MB at 4-MB pages), so the hot
    # phase keeps missing and the layouts differ in which disks that wakes.
    return NapMemorySystem(machine.memory, 128 * MB)


def _scattered_hot_trace(machine, periods=4):
    """A cold first-period scan over [0, 400), then pure hot traffic on
    [100, 140).  The hot set starts scattered off disk 0 (partition unit
    100 pages puts it on disk 1), so a migrating layout has work to do --
    and once it does it, the other spindles see no traffic at all."""
    rng = np.random.default_rng(42)
    period = machine.manager.period_s
    duration = periods * period
    cold_n, hot_n = 200, 400
    cold_pages = rng.integers(0, 400, size=cold_n)
    cold_times = np.sort(rng.uniform(0.0, period * 0.95, size=cold_n))
    hot_pages = rng.integers(100, 140, size=hot_n)
    hot_times = np.sort(
        rng.uniform(period, duration * 0.95, size=hot_n)
    )
    pages = np.concatenate([cold_pages, hot_pages]).astype(np.int64)
    times = np.concatenate([cold_times, hot_times])
    return (
        Trace(times=times, pages=pages, page_size=machine.page_bytes),
        float(duration),
    )


class TestStaticParity:
    """Static layout + a period-blind policy == the legacy engine, bitwise."""

    @pytest.mark.parametrize(
        "layout_factory",
        [
            lambda: PartitionedLayout(num_disks=3, pages_per_disk=140),
            lambda: StripedLayout(num_disks=3, extent_pages=4),
        ],
    )
    def test_bit_equal_to_multidisk(self, fast_machine, layout_factory):
        trace, duration = _scattered_hot_trace(fast_machine)
        policy = lambda: FixedTimeoutPolicy(
            fast_machine.disk.break_even_time_s
        )
        reference = MultiDiskEngine(
            fast_machine,
            _memory(fast_machine),
            layout_factory(),
            policy_factory=policy,
            label="parity",
        ).run(trace, duration_s=duration)
        fleet = FleetEngine(
            fast_machine,
            _memory(fast_machine),
            layout_factory(),
            policy_factory=policy,
            label="parity",
        ).run(trace, duration_s=duration)

        assert fleet.pages_migrated == 0
        assert fleet.migrations == ()
        assert fleet.timeout_updates == 0
        expected = reference.to_payload()
        actual = {
            k: v for k, v in fleet.to_payload().items() if k in expected
        }
        assert actual == expected


class TestMigration:
    def _run(self, machine, layout):
        trace, duration = _scattered_hot_trace(machine)
        engine = FleetEngine(
            machine,
            _memory(machine),
            layout,
            policy_factory=lambda: ParetoTimeoutPolicy(
                machine.disk.break_even_time_s,
                aggregation_window_s=machine.manager.aggregation_window_s,
            ),
        )
        return engine.run(trace, duration_s=duration)

    def test_migration_is_charged(self, fast_machine):
        result = self._run(
            fast_machine, MigratingLayout(num_disks=4, pages_per_disk=100)
        )
        assert result.pages_migrated > 0
        assert result.migration_active_s > 0
        assert result.migration_energy_j == (
            result.migration_active_s
            * fast_machine.disk.mode_power_watts["active"]
        )
        assert result.migrations
        # Conservation: every miss is one page, every migrated page is a
        # read plus a write.
        moved_bytes = sum(int(e.bytes_transferred) for e in result.per_disk)
        assert moved_bytes == (
            result.disk_page_accesses + 2 * result.pages_migrated
        ) * fast_machine.page_bytes

    def test_pareto_policies_refit_per_disk(self, fast_machine):
        result = self._run(
            fast_machine, MigratingLayout(num_disks=4, pages_per_disk=100)
        )
        assert result.timeout_updates > 0

    def test_migration_beats_striping_on_sleep(self, fast_machine):
        migrating = self._run(
            fast_machine, MigratingLayout(num_disks=4, pages_per_disk=100)
        )
        striped = self._run(
            fast_machine, StripedLayout(num_disks=4, extent_pages=4)
        )
        assert migrating.sleeping_disks > striped.sleeping_disks

    def test_result_round_trips_through_json(self, fast_machine):
        result = self._run(
            fast_machine, MigratingLayout(num_disks=4, pages_per_disk=100)
        )
        payload = json.loads(json.dumps(result.to_payload()))
        again = FleetResult.from_payload(payload)
        assert again == result
        assert again.to_payload() == result.to_payload()
