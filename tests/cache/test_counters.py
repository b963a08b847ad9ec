"""The paper's per-depth counters (Fig. 3) -> miss counts at any size.

:meth:`TraceProfile.hit_counts` / :meth:`~TraceProfile.miss_counts` are
the counters of the extended LRU list: an access at 0-based depth ``d``
hits any cache of more than ``d`` pages, so for ``m`` pages
``misses(m) = cold misses + #accesses with depth >= m``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.profile import TraceProfile
from repro.cache.stack_distance import COLD
from repro.errors import SimulationError


def profile_of(depths) -> TraceProfile:
    return TraceProfile(
        depths=np.asarray(depths, dtype=np.int64), warm_start=False, key=""
    )


class TestRecording:
    def test_totals(self):
        profile = profile_of([COLD, 0, 0, 3])
        assert len(profile) == 4
        # Hits gained per extra page of memory: the per-depth counters.
        assert np.diff(profile.hit_counts(np.arange(6))).tolist() == [
            2, 0, 0, 1, 0
        ]
        # Only the cold access misses a cache deeper than every reuse.
        assert profile.miss_counts([4]).tolist() == [1]


class TestMissCounts:
    def test_misses_at_size(self):
        profile = profile_of([COLD, 0, 1, 1, 5])
        # capacity 0: everything misses; 1: depth 0 hits; 2: depths 0, 1
        # hit; 6: only the cold miss remains.
        assert profile.miss_counts([0, 1, 2, 6]).tolist() == [5, 4, 2, 1]

    def test_vectorised_matches_scalar(self):
        depths = [COLD, 0, 2, 2, 7, 9, COLD]
        profile = profile_of(depths)
        sizes = list(range(0, 12))
        assert profile.miss_counts(sizes).tolist() == [
            sum(1 for d in depths if d == COLD or d >= s) for s in sizes
        ]

    def test_vectorised_empty_input(self):
        assert profile_of([COLD, 0]).miss_counts([]).tolist() == []

    def test_vectorised_no_reuse(self):
        assert profile_of([COLD] * 3).miss_counts([0, 5]).tolist() == [3, 3]

    def test_rejects_negative_capacity(self):
        with pytest.raises(SimulationError):
            profile_of([COLD, 0]).miss_counts([-1])
        with pytest.raises(SimulationError):
            profile_of([COLD, 0]).hit_counts([1, -1])

    def test_miss_ratio_curve_shape(self):
        profile = profile_of([COLD, 0, 1, 3, 3])
        curve = profile.miss_counts(np.arange(6))
        assert curve.tolist() == [5, 4, 3, 3, 1, 1]

    @given(
        depths=st.lists(
            st.integers(min_value=-1, max_value=40), min_size=1, max_size=200
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_nonincreasing_property(self, depths):
        curve = profile_of(depths).miss_counts(np.arange(46))
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        assert curve[0] == len(depths)
        assert curve[-1] == depths.count(COLD)
