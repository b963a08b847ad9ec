"""Simulation engine on hand-built micro workloads with exact expectations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.disk_spec import DiskSpec
from repro.config.machine import MachineConfig
from repro.config.manager import ManagerConfig
from repro.config.memory_spec import MemorySpec
from repro.core.joint import JointPowerManager
from repro.errors import SimulationError
from repro.memory.system import NapMemorySystem
from repro.policies.always_on import AlwaysOnPolicy
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.sim.engine import SimulationEngine
from repro.traces.trace import Trace
from repro.units import KB


def micro_machine(period_s: float = 100.0) -> MachineConfig:
    """16 pages of memory in 4 banks; default disk; short periods."""
    return MachineConfig(
        memory=MemorySpec(
            installed_bytes=64 * KB,
            bank_bytes=16 * KB,
            chip_bytes=16 * KB,
            page_bytes=4 * KB,
        ),
        disk=DiskSpec(),
        manager=ManagerConfig(
            period_s=period_s,
            enumeration_unit_bytes=16 * KB,
            min_memory_bytes=16 * KB,
            max_candidates=8,
        ),
    )


def make_trace(times, pages):
    return Trace(
        times=np.asarray(times, dtype=float),
        pages=np.asarray(pages, dtype=np.int64),
        page_size=4 * KB,
    )


def run_engine(machine, trace, policy=None, duration=None, warmup=0.0, memory=None):
    memory = memory or NapMemorySystem(machine.memory, machine.memory.installed_bytes)
    engine = SimulationEngine(
        machine, memory, disk_policy=policy or AlwaysOnPolicy()
    )
    return engine.run(trace, duration_s=duration, warmup_s=warmup)


class TestBasicRuns:
    def test_miss_then_hit(self):
        machine = micro_machine()
        trace = make_trace([1.0, 2.0], [5, 5])
        result = run_engine(machine, trace, duration=100.0)
        assert result.total_accesses == 2
        assert result.disk_page_accesses == 1
        assert result.disk_requests == 1

    def test_all_hits_leave_disk_idle(self):
        machine = micro_machine()
        memory = NapMemorySystem(machine.memory, machine.memory.installed_bytes)
        memory.prefill([5])
        trace = make_trace([1.0, 2.0, 3.0], [5, 5, 5])
        result = run_engine(machine, trace, duration=100.0, memory=memory)
        assert result.disk_page_accesses == 0
        assert result.utilization == 0.0
        assert result.disk_energy.idle_s == pytest.approx(100.0)

    def test_latency_recorded(self):
        machine = micro_machine()
        trace = make_trace([1.0], [5])
        result = run_engine(machine, trace, duration=100.0)
        service = SimulationEngine(
            machine, NapMemorySystem(machine.memory, 64 * KB),
            disk_policy=AlwaysOnPolicy(),
        ).service.service_time(1)
        assert result.mean_latency_s == pytest.approx(service)

    def test_duration_defaults_to_whole_periods(self):
        machine = micro_machine(period_s=100.0)
        trace = make_trace([1.0, 150.0], [1, 2])
        result = run_engine(machine, trace)
        assert result.duration_s == 200.0
        assert len(result.periods) == 2

    def test_memory_energy_accrues(self):
        machine = micro_machine()
        trace = make_trace([1.0], [5])
        result = run_engine(machine, trace, duration=100.0)
        nap = machine.memory.mode_power_watts["nap"]
        assert result.memory_energy.static_j == pytest.approx(nap * 4 * 100.0)


class TestSpinDownPath:
    def test_fixed_timeout_spins_down_and_wakes(self):
        machine = micro_machine()
        trace = make_trace([0.0, 60.0], [1, 2])
        result = run_engine(
            machine, trace, policy=FixedTimeoutPolicy(10.0), duration=100.0
        )
        assert result.spin_down_cycles == 2  # mid-run + trailing idle
        assert result.wake_long_latency == 1
        assert result.long_latency == 1

    def test_sequential_misses_priced_cheap(self):
        machine = micro_machine()
        # Page 6 follows page 5 within the merge window: sequential.
        trace = make_trace([0.0, 0.01], [5, 6])
        result = run_engine(machine, trace, duration=100.0)
        assert result.disk_requests == 1  # merged by the clusterer
        service = SimulationEngine(
            machine, NapMemorySystem(machine.memory, 64 * KB),
            disk_policy=AlwaysOnPolicy(),
        ).service
        # The second miss queues behind the first and streams sequentially.
        first = service.service_time(1)
        second_finish = first + service.service_time(1, sequential=True)
        total = first + (second_finish - 0.01)
        assert result.mean_latency_s * 2 == pytest.approx(total)


class TestWarmup:
    def test_warmup_excluded_from_metrics(self):
        machine = micro_machine(period_s=100.0)
        trace = make_trace([1.0, 150.0], [1, 1])  # miss then hit
        result = run_engine(machine, trace, duration=200.0, warmup=100.0)
        assert result.duration_s == 100.0
        assert result.total_accesses == 1
        assert result.disk_page_accesses == 0  # the miss was in warm-up

    def test_warmup_energy_excluded(self):
        machine = micro_machine(period_s=100.0)
        trace = make_trace([], [])
        result = run_engine(machine, trace, duration=200.0, warmup=100.0)
        nap = machine.memory.mode_power_watts["nap"]
        assert result.memory_energy.static_j == pytest.approx(nap * 4 * 100.0)
        idle_power = machine.disk.mode_power_watts["idle"]
        assert result.disk_energy_j == pytest.approx(idle_power * 100.0)

    def test_warmup_validation(self):
        machine = micro_machine(period_s=100.0)
        trace = make_trace([1.0], [1])
        with pytest.raises(SimulationError):
            run_engine(machine, trace, duration=200.0, warmup=250.0)
        with pytest.raises(SimulationError):
            run_engine(machine, trace, duration=200.0, warmup=50.0)


class TestJointIntegration:
    def test_joint_resizes_memory(self):
        machine = micro_machine(period_s=100.0)
        manager = JointPowerManager(machine)
        memory = NapMemorySystem(machine.memory, manager.memory_bytes)
        engine = SimulationEngine(machine, memory, joint_manager=manager)
        # Two hot pages only: the manager should shrink to one bank.
        times = np.arange(0.0, 400.0, 5.0)
        pages = np.asarray([i % 2 for i in range(times.size)], dtype=np.int64)
        trace = Trace(times=times, pages=pages, page_size=4 * KB)
        result = engine.run(trace, duration_s=400.0)
        assert result.decisions
        assert memory.capacity_bytes == 16 * KB  # one bank
        assert result.periods[-1].memory_bytes == 16 * KB

    def test_joint_requires_resizable_memory(self):
        machine = micro_machine()
        manager = JointPowerManager(machine)
        from repro.memory.system import PowerDownMemorySystem

        memory = PowerDownMemorySystem(machine.memory)
        with pytest.raises(SimulationError):
            SimulationEngine(machine, memory, joint_manager=manager)

    def test_exactly_one_controller(self):
        machine = micro_machine()
        memory = NapMemorySystem(machine.memory, 64 * KB)
        with pytest.raises(SimulationError):
            SimulationEngine(machine, memory)
        with pytest.raises(SimulationError):
            SimulationEngine(
                machine,
                memory,
                disk_policy=AlwaysOnPolicy(),
                joint_manager=JointPowerManager(machine),
            )

    def test_joint_scalar_span_must_end_before_the_boundary(self):
        # The manager records a scalar span as one batch, which is exact
        # only inside one period: a span reaching the boundary is refused.
        machine = micro_machine(period_s=100.0)
        manager = JointPowerManager(machine)
        memory = NapMemorySystem(machine.memory, manager.memory_bytes)
        engine = SimulationEngine(machine, memory, joint_manager=manager)
        st = engine._start(False, 300.0, 0.0, False)
        st.times = np.asarray([10.0, 50.0, 100.0, 150.0])
        st.pages = np.asarray([1, 2, 1, 3], dtype=np.int64)
        with pytest.raises(SimulationError, match="period boundary"):
            engine._replay_scalar(st, 0, 3)
        assert len(manager._predictor) == 0
        engine._replay_scalar(st, 0, 2)
        assert len(manager._predictor) == 2
