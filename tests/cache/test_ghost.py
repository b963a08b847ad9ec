"""Extended LRU list (resident + replaced pages)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.ghost import ExtendedLRUList
from repro.cache.stack_distance import COLD, StackDistanceTracker
from repro.errors import SimulationError


class TestBasics:
    def test_positions_are_stack_depths(self):
        lru = ExtendedLRUList(total_slots=4, resident_pages=2)
        assert lru.access(1) == COLD
        assert lru.access(2) == COLD
        assert lru.access(1) == 1
        assert lru.access(1) == 0

    def test_residency_boundary(self):
        lru = ExtendedLRUList(total_slots=4, resident_pages=2)
        for page in (1, 2, 3):
            lru.access(page)
        # Order: 3, 2, 1 -- only the top two are "in memory".
        assert lru.is_resident(3)
        assert lru.is_resident(2)
        assert not lru.is_resident(1)  # ghost entry
        assert not lru.is_resident(99)

    def test_ghosts_fall_off_the_end(self):
        lru = ExtendedLRUList(total_slots=2, resident_pages=1)
        lru.access(1)
        lru.access(2)
        lru.access(3)  # 1 falls off entirely
        assert lru.access(1) == COLD

    def test_resize_resident_does_not_touch_list(self):
        lru = ExtendedLRUList(total_slots=4, resident_pages=2)
        for page in (1, 2, 3, 4):
            lru.access(page)
        before = lru.contents()
        lru.resize_resident(3)
        assert lru.contents() == before
        assert lru.is_resident(2)

    def test_misses_if_resident(self):
        lru = ExtendedLRUList(total_slots=4, resident_pages=2)
        for page in (1, 2, 1, 2, 3, 1):
            lru.access(page)
        # Counters tally accesses by position; shrinking memory turns
        # positions >= size into disk accesses.
        assert lru.misses_if_resident(0) == sum(lru.counters)
        assert lru.misses_if_resident(4) == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            ExtendedLRUList(total_slots=0, resident_pages=0)
        with pytest.raises(SimulationError):
            ExtendedLRUList(total_slots=2, resident_pages=3)
        lru = ExtendedLRUList(total_slots=2, resident_pages=1)
        with pytest.raises(SimulationError):
            lru.resize_resident(5)
        with pytest.raises(SimulationError):
            lru.misses_if_resident(5)


class TestEquivalenceWithTracker:
    """The readable ghost list and the fast tracker must agree while no
    page has fallen off the bounded list."""

    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=9), max_size=120)
    )
    @settings(max_examples=80, deadline=None)
    def test_positions_match_stack_distances(self, accesses):
        # 10 distinct pages at most, 16 slots: nothing ever falls off.
        lru = ExtendedLRUList(total_slots=16, resident_pages=8)
        positions = [lru.access(page) for page in accesses]
        depths = StackDistanceTracker().access_array(
            np.asarray(accesses, dtype=np.int64)
        )
        assert positions == depths.tolist()
