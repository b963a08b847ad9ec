"""JointPowerManager: the per-period decision loop."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config.machine import MachineConfig, paper_machine
from repro.core.joint import JointPowerManager
from repro.errors import SimulationError
from repro.units import GB


@pytest.fixture()
def machine():
    base = paper_machine().scaled(1024)
    manager = dataclasses.replace(base.manager, max_candidates=16)
    return MachineConfig(
        memory=base.memory, disk=base.disk, manager=manager, scale=base.scale
    )


def feed_loop(manager, pages, start_s, period_s, rate_per_s=10.0):
    """Feed a cyclic page pattern for one period, as one span."""
    times = []
    t = start_s
    dt = 1.0 / rate_per_s
    while t < start_s + period_s:
        times.append(t)
        t += dt
    manager.record_pages(times, [pages[i % len(pages)] for i in range(len(times))])
    return manager.end_period(start_s + period_s)


class TestDecisions:
    def test_initial_state(self, machine):
        manager = JointPowerManager(machine)
        assert manager.memory_bytes == machine.memory.installed_bytes
        assert manager.timeout_s == pytest.approx(machine.disk.break_even_time_s)
        assert manager.candidates_bytes[-1] == machine.memory.installed_bytes

    def test_small_hot_set_shrinks_memory(self, machine):
        manager = JointPowerManager(machine)
        hot = list(range(64))  # 64 pages = 256 MB hot set
        decision = feed_loop(manager, hot, 0.0, 600.0)
        assert decision.memory_bytes < 16 * GB
        assert manager.memory_bytes == decision.memory_bytes

    def test_silent_period_minimises_memory(self, machine):
        manager = JointPowerManager(machine)
        decision = manager.end_period(600.0)
        assert decision.memory_bytes == manager.candidates_bytes[0]
        assert decision.observed_accesses == 0

    def test_decisions_accumulate(self, machine):
        manager = JointPowerManager(machine)
        feed_loop(manager, list(range(32)), 0.0, 600.0)
        feed_loop(manager, list(range(32)), 600.0, 600.0)
        assert [d.period_index for d in manager.decisions] == [0, 1]
        assert manager.decisions[1].start_s == 600.0

    def test_lru_history_survives_periods(self, machine):
        # Table IV note: the LRU list is not reset every period, so a
        # pattern learned in period 1 is not cold in period 2.
        manager = JointPowerManager(machine)
        pages = list(range(128))
        feed_loop(manager, pages, 0.0, 600.0)
        [first] = manager.record_pages([600.5], [pages[-1]])
        assert first >= 0  # known page, not a cold miss

    def test_predictor_resets_each_period(self, machine):
        manager = JointPowerManager(machine)
        feed_loop(manager, list(range(8)), 0.0, 600.0)
        decision = manager.end_period(1200.0)
        assert decision.observed_accesses == 0

    def test_period_end_before_start_rejected(self, machine):
        manager = JointPowerManager(machine)
        manager.end_period(600.0)
        with pytest.raises(SimulationError):
            manager.end_period(300.0)

    def test_initial_memory_must_be_candidate(self, machine):
        with pytest.raises(SimulationError):
            JointPowerManager(machine, initial_memory_bytes=12345)

    def test_prefill_warms_tracker(self, machine):
        manager = JointPowerManager(machine)
        manager.prefill([1, 2, 3])
        assert manager.record_pages([0.0, 0.1], [3, 1]).tolist() == [0, 2]


class TestTimeoutSelection:
    def test_sparse_traffic_allows_spin_down(self, machine):
        # One access per 60 s: long intervals, spin-down worthwhile.
        manager = JointPowerManager(machine)
        decision = feed_loop(
            manager, list(range(4)), 0.0, 600.0, rate_per_s=1 / 60.0
        )
        chosen = decision.evaluations[
            [e.capacity_bytes for e in decision.evaluations].index(
                decision.memory_bytes
            )
        ]
        assert chosen.prediction.num_disk_accesses >= 0
        # A timeout was selected (finite) for the chosen candidate.
        assert decision.timeout_s is None or decision.timeout_s > 0

    def test_all_evaluations_returned_ascending(self, machine):
        manager = JointPowerManager(machine)
        decision = feed_loop(manager, list(range(16)), 0.0, 600.0)
        capacities = [e.capacity_bytes for e in decision.evaluations]
        assert capacities == sorted(capacities)
        assert len(capacities) == len(manager.candidates_bytes)


class TestBatchFeeding:
    def test_prefill_depths_match_scalar_loop(self, machine):
        # The lazy prefill warm-up (one access_array call) must leave the
        # tracker in the state a page-at-a-time loop produces -- the
        # explicit LRU stack's: later spans see the same depths, whatever
        # their batch split.
        from repro.cache.stack_distance import StackDistanceTracker
        from repro.verify.oracles import naive_stack_distances

        rng = np.random.default_rng(42)
        warm = rng.integers(0, 200, 500).tolist()
        probe = rng.integers(0, 250, 200).tolist()
        loop = StackDistanceTracker()
        for page in warm:
            loop.access_array([page])
        expected = [int(loop.access_array([page])[0]) for page in probe]
        assert expected == naive_stack_distances(warm + probe)[len(warm) :]

        manager = JointPowerManager(machine)
        manager.prefill(warm)
        times = np.arange(len(probe), dtype=np.float64)
        depths = [
            manager.record_pages(times[lo:hi], probe[lo:hi])
            for lo, hi in ((0, 1), (1, 1), (1, 90), (90, 200))
        ]
        assert np.concatenate(depths).tolist() == expected

    def test_record_profiled_matches_record_pages(self, machine):
        # Feeding the per-period log from precomputed depths must produce
        # the identical decision to recording the pages themselves.
        from repro.cache.stack_distance import StackDistanceTracker
        from repro.verify.differential import deep_diff

        rng = np.random.default_rng(7)
        pages = rng.integers(0, 300, 800)
        times = np.sort(rng.uniform(0.0, 600.0, 800))

        live = JointPowerManager(machine)
        for lo in range(0, 800, 300):
            live.record_pages(times[lo : lo + 300], pages[lo : lo + 300])
        live_decision = live.end_period(600.0)

        depths = StackDistanceTracker().access_array(pages)
        batched = JointPowerManager(machine)
        batched.record_profiled(times, depths)
        assert len(batched._predictor) == len(pages)
        batched_decision = batched.end_period(600.0)

        assert deep_diff(live_decision, batched_decision) is None
