"""Disk array and the multi-disk engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disk.service import ServiceModel
from repro.errors import SimulationError
from repro.fleet.array import DiskArray
from repro.fleet.layout import PartitionedLayout, StripedLayout
from repro.memory.system import NapMemorySystem
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.traces.specweb import generate_trace
from repro.traces.trace import Trace
from repro.units import GB, MB
from repro.verify.fleet import MultiDiskEngine


class TestDiskArray:
    @pytest.fixture()
    def array(self, machine):
        service = ServiceModel(machine.disk, machine.page_bytes)
        layout = PartitionedLayout(num_disks=2, pages_per_disk=100)
        return DiskArray(machine.disk, service, layout)

    def test_routing(self, array):
        array.submit(1.0, page=5)
        array.submit(2.0, page=150)
        assert array.disks[0].energy.requests == 1
        assert array.disks[1].energy.requests == 1

    def test_per_disk_timeouts(self, array):
        array.set_timeout(0.0, 0, 5.0)
        array.submit(0.0, page=5)  # disk 0 busy then idle
        array.advance(100.0)
        assert array.disks[0].is_spun_down
        assert not array.disks[1].is_spun_down  # no timeout installed

    def test_aggregate_energy(self, array):
        array.submit(1.0, page=5)
        array.submit(2.0, page=150)
        array.finalize(10.0)
        total = array.aggregate_energy()
        assert total.requests == 2
        # Two spindles: accounted time is twice the window.
        assert total.accounted_s == pytest.approx(20.0, abs=0.1)
        assert array.total_joules() > 0

    def test_bad_disk_index(self, array):
        with pytest.raises(SimulationError):
            array.set_timeout(0.0, 5, 1.0)


class TestMultiDiskEngine:
    def _run(self, machine, layout, trace, duration, warmup=0.0):
        memory = NapMemorySystem(machine.memory, 8 * GB)
        engine = MultiDiskEngine(
            machine,
            memory,
            layout,
            policy_factory=lambda: FixedTimeoutPolicy(
                machine.disk.break_even_time_s
            ),
        )
        return engine.run(trace, duration_s=duration, warmup_s=warmup)

    def test_counts_and_energy(self, fast_machine):
        trace = Trace(
            times=np.arange(0.0, 100.0, 5.0),
            pages=np.arange(20, dtype=np.int64),
            page_size=fast_machine.page_bytes,
        )
        layout = PartitionedLayout(num_disks=2, pages_per_disk=10)
        result = self._run(fast_machine, layout, trace, duration=240.0)
        assert result.total_accesses == 20
        assert result.disk_page_accesses == 20  # all cold
        assert result.num_disks == 2
        assert len(result.per_disk) == 2
        assert result.per_disk[0].requests == 10
        assert result.per_disk[1].requests == 10
        assert result.total_energy_j > 0

    def test_partitioning_lets_cold_disks_sleep(self, fast_machine):
        """The [31]-style skew effect: hot-concentrating layouts park the
        cold spindles; striping keeps every spindle awake."""
        trace = generate_trace(
            dataset_bytes=8 * GB,
            data_rate=20 * MB,
            duration_s=960.0,
            popularity=0.1,
            page_size=fast_machine.page_bytes,
            file_scale=fast_machine.scale,
            seed=55,
        )
        pages_total = 8 * GB // fast_machine.page_bytes
        partitioned = self._run(
            fast_machine,
            PartitionedLayout(num_disks=4, pages_per_disk=pages_total // 4),
            trace,
            duration=960.0,
            warmup=240.0,
        )
        striped = self._run(
            fast_machine,
            StripedLayout(num_disks=4, extent_pages=4),
            trace,
            duration=960.0,
            warmup=240.0,
        )
        # Same cache, same workload: identical miss streams.
        assert partitioned.disk_page_accesses == striped.disk_page_accesses
        # Partitioning concentrates idleness: more disks mostly asleep,
        # and lower total disk energy.
        assert partitioned.sleeping_disks >= striped.sleeping_disks
        assert partitioned.disk_energy_j < striped.disk_energy_j

    def test_warmup_validation(self, fast_machine):
        trace = Trace(
            times=np.array([1.0]),
            pages=np.array([1], dtype=np.int64),
            page_size=fast_machine.page_bytes,
        )
        layout = PartitionedLayout(num_disks=2, pages_per_disk=10)
        with pytest.raises(SimulationError):
            self._run(fast_machine, layout, trace, duration=100.0, warmup=200.0)


class TestWriteGuard:
    def test_write_traces_rejected_explicitly(self, fast_machine):
        trace = Trace(
            times=np.array([1.0, 2.0]),
            pages=np.array([1, 2], dtype=np.int64),
            page_size=fast_machine.page_bytes,
            writes=np.array([True, False]),
        )
        memory = NapMemorySystem(fast_machine.memory, 8 * GB)
        engine = MultiDiskEngine(
            fast_machine,
            memory,
            PartitionedLayout(num_disks=2, pages_per_disk=10),
            policy_factory=lambda: FixedTimeoutPolicy(11.7),
        )
        with pytest.raises(SimulationError, match="write-back"):
            engine.run(trace, duration_s=100.0)

    def test_read_only_flagged_trace_accepted(self, fast_machine):
        trace = Trace(
            times=np.array([1.0]),
            pages=np.array([1], dtype=np.int64),
            page_size=fast_machine.page_bytes,
            writes=np.array([False]),
        )
        memory = NapMemorySystem(fast_machine.memory, 8 * GB)
        engine = MultiDiskEngine(
            fast_machine,
            memory,
            PartitionedLayout(num_disks=2, pages_per_disk=10),
            policy_factory=lambda: FixedTimeoutPolicy(11.7),
        )
        result = engine.run(trace, duration_s=100.0)
        assert result.total_accesses == 1
