"""Data layouts."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SimulationError
from repro.fleet.layout import PartitionedLayout, StripedLayout


class TestPartitioned:
    def test_ranges(self):
        layout = PartitionedLayout(num_disks=3, pages_per_disk=10)
        assert layout.disk_of(0) == 0
        assert layout.disk_of(9) == 0
        assert layout.disk_of(10) == 1
        assert layout.disk_of(29) == 2

    def test_overflow_wraps_to_last_disk(self):
        layout = PartitionedLayout(num_disks=2, pages_per_disk=10)
        assert layout.disk_of(1000) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            PartitionedLayout(num_disks=0, pages_per_disk=10)
        with pytest.raises(ConfigError):
            PartitionedLayout(num_disks=2, pages_per_disk=0)

    def test_negative_page_is_a_runtime_error(self):
        # A negative page is corrupt *trace* data hitting the replay, not
        # a misconfiguration: it must raise SimulationError (regression
        # test -- this used to raise ConfigError).
        with pytest.raises(SimulationError):
            PartitionedLayout(num_disks=2, pages_per_disk=10).disk_of(-1)


class TestStriped:
    def test_round_robin_extents(self):
        layout = StripedLayout(num_disks=3, extent_pages=2)
        assert [layout.disk_of(p) for p in range(8)] == [0, 0, 1, 1, 2, 2, 0, 0]

    def test_single_page_extents(self):
        layout = StripedLayout(num_disks=2, extent_pages=1)
        assert [layout.disk_of(p) for p in range(4)] == [0, 1, 0, 1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            StripedLayout(num_disks=2, extent_pages=0)

    def test_negative_page_is_a_runtime_error(self):
        with pytest.raises(SimulationError):
            StripedLayout(num_disks=2).disk_of(-5)

    def test_balanced_distribution(self):
        layout = StripedLayout(num_disks=4, extent_pages=8)
        counts = [0] * 4
        for page in range(4 * 8 * 25):
            counts[layout.disk_of(page)] += 1
        assert len(set(counts)) == 1
