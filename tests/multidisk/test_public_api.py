"""The static fleet array, cross-checked against the single-disk
engine's replay modes.

A one-disk array with the same cache must reproduce the single-disk
engine's miss stream regardless of which replay loop the single-disk
side took (scalar or vectorized) -- the fleet engine replays a static
layout on its scalar loop, so this pins it to the kernels the rest of
the repo trusts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import (
    DataLayout,
    FleetEngine,
    PartitionedLayout,
    StripedLayout,
)
from repro.memory.system import NapMemorySystem
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.sim.runner import run_method
from repro.traces.specweb import generate_trace
from repro.units import GB, MB


class TestSurface:
    def test_layouts_are_data_layouts(self):
        assert issubclass(PartitionedLayout, DataLayout)
        assert issubclass(StripedLayout, DataLayout)


class TestCrossEngineAgreement:
    """One disk, same cache: fleet array == single-disk, in every mode."""

    @pytest.fixture(scope="class")
    def trace(self, machine):
        return generate_trace(
            dataset_bytes=4 * GB,
            data_rate=60 * MB,
            duration_s=600.0,
            page_size=machine.page_bytes,
            seed=21,
            file_scale=machine.scale,
        )

    def _multi(self, machine, trace, num_disks=1):
        pages_total = int(np.ceil(16 * GB / machine.page_bytes))
        engine = FleetEngine(
            machine,
            NapMemorySystem(machine.memory, 8 * GB),
            PartitionedLayout(
                num_disks=num_disks,
                pages_per_disk=pages_total // num_disks + 1,
            ),
            policy_factory=lambda: FixedTimeoutPolicy(
                machine.disk.break_even_time_s
            ),
        )
        return engine.run(trace, duration_s=600.0)

    def test_miss_stream_matches_both_replay_modes(self, machine, trace):
        multi = self._multi(machine, trace)
        fast = run_method(
            "2TFM-8GB", trace, machine, duration_s=600.0,
            warm_start=False, profile="auto",
        )
        slow = run_method(
            "2TFM-8GB", trace, machine, duration_s=600.0,
            warm_start=False, profile=None,
        )
        assert fast.replay_mode == "missrun"
        assert slow.replay_mode == "scalar"
        assert fast.disk_page_accesses == slow.disk_page_accesses
        assert multi.disk_page_accesses == fast.disk_page_accesses
        assert multi.total_accesses == fast.total_accesses

    def test_epoch_mode_run_sees_same_workload(self, machine, trace):
        # The joint manager takes the epoch kernel; its workload counters
        # must agree with the (scalar) fleet replay of the same trace.
        joint = run_method(
            "JOINT", trace, machine, duration_s=600.0, warm_start=False
        )
        multi = self._multi(machine, trace)
        assert joint.replay_mode == "epoch"
        assert joint.total_accesses == multi.total_accesses
        assert joint.duration_s == multi.duration_s

    def test_splitting_the_array_preserves_the_miss_stream(self, machine, trace):
        one = self._multi(machine, trace, num_disks=1)
        four = self._multi(machine, trace, num_disks=4)
        # Layout only routes misses; the shared cache decides them.
        assert four.disk_page_accesses == one.disk_page_accesses
        assert four.num_disks == 4
        assert len(four.per_disk) == 4
        assert sum(d.requests for d in four.per_disk) == sum(
            d.requests for d in one.per_disk
        )
