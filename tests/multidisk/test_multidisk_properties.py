"""Property-based invariants of the disk array."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.service import ServiceModel
from repro.fleet.array import DiskArray
from repro.fleet.layout import PartitionedLayout, StripedLayout
from repro.memory.system import NapMemorySystem
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.traces.trace import Trace
from repro.units import GB
from repro.verify.fleet import MultiDiskEngine

events = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=60.0),
        st.integers(min_value=0, max_value=60),
    ),
    min_size=1,
    max_size=40,
)

layouts = st.sampled_from(
    [
        PartitionedLayout(num_disks=3, pages_per_disk=20),
        StripedLayout(num_disks=3, extent_pages=4),
        StripedLayout(num_disks=2, extent_pages=1),
    ]
)


class TestArrayConservation:
    @given(schedule=events, layout=layouts)
    @settings(max_examples=60, deadline=None)
    def test_per_disk_time_conservation(self, machine, schedule, layout):
        service = ServiceModel(machine.disk, machine.page_bytes)
        array = DiskArray(machine.disk, service, layout)
        array.set_all_timeouts(0.0, machine.disk.break_even_time_s)
        now = 0.0
        for gap, page in schedule:
            now += gap
            array.submit(now, page)
        end = now + 50.0
        array.finalize(end)
        for disk in array.disks:
            accounted = (
                disk.energy.active_s
                + disk.energy.idle_s
                + disk.energy.standby_s
                + disk.energy.transition_s
            )
            assert accounted >= end - 1e-6
            assert accounted <= end + machine.disk.spin_up_time_s + 1e-6

    @given(schedule=events, layout=layouts)
    @settings(max_examples=60, deadline=None)
    def test_requests_partition_exactly(self, machine, schedule, layout):
        service = ServiceModel(machine.disk, machine.page_bytes)
        array = DiskArray(machine.disk, service, layout)
        now = 0.0
        for gap, page in schedule:
            now += gap
            array.submit(now, page)
        total = array.aggregate_energy()
        assert total.requests == len(schedule)
        # Every request landed on the disk the layout names.
        by_disk = [d.energy.requests for d in array.disks]
        expected = [0] * array.num_disks
        for _, page in schedule:
            expected[layout.disk_of(page)] += 1
        assert by_disk == expected


class TestEngineTotals:
    @given(schedule=events)
    @settings(max_examples=25, deadline=None)
    def test_engine_accounts_every_access(self, fast_machine, schedule):
        times = np.cumsum([gap for gap, _ in schedule])
        pages = np.asarray([page for _, page in schedule], dtype=np.int64)
        trace = Trace(
            times=times, pages=pages, page_size=fast_machine.page_bytes
        )
        memory = NapMemorySystem(fast_machine.memory, 8 * GB)
        engine = MultiDiskEngine(
            fast_machine,
            memory,
            StripedLayout(num_disks=2, extent_pages=2),
            policy_factory=lambda: FixedTimeoutPolicy(11.7),
        )
        result = engine.run(trace, duration_s=float(times[-1]) + 10.0)
        assert result.total_accesses == len(schedule)
        assert result.disk_page_accesses == sum(
            e.requests for e in result.per_disk
        )
        assert result.disk_energy_j > 0
