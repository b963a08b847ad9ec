"""Inclusion-property tests: predicted misses are monotone in memory size.

Satellite of the differential-verification PR.  LRU's inclusion property
(a larger LRU cache holds a superset of a smaller one) implies that the
predicted disk-access count must be monotonically non-increasing in the
candidate memory size -- for the literal extended LRU list of
``cache/ghost.py``, for the one-pass ``cache/predictor.py``, and for the
brute-force oracle, all of which must also agree with each other.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.ghost import ExtendedLRUList
from repro.cache.predictor import ResizePredictor
from repro.cache.stack_distance import COLD, StackDistanceTracker
from repro.verify.oracles import naive_lru_misses
from repro.verify.strategies import access_patterns

CAPACITIES = tuple(range(0, 24))


@given(pages=access_patterns(max_size=200))
@settings(max_examples=100, deadline=None)
def test_ghost_list_misses_monotone_in_size(pages):
    slots = 64  # larger than any working set access_patterns() generates
    lru = ExtendedLRUList(slots, resident_pages=8)
    cold = sum(1 for page in pages if lru.access(page) == COLD)
    misses = [cold + lru.misses_if_resident(m) for m in range(slots + 1)]
    for smaller, larger in zip(misses, misses[1:]):
        assert smaller >= larger
    # At full list size only cold misses remain.
    assert misses[-1] == cold == len(set(pages))


@given(pages=access_patterns(max_size=200))
@settings(max_examples=100, deadline=None)
def test_ghost_list_matches_literal_lru(pages):
    lru = ExtendedLRUList(64, resident_pages=8)
    cold = sum(1 for page in pages if lru.access(page) == COLD)
    for m in range(1, 33):
        assert cold + lru.misses_if_resident(m) == naive_lru_misses(pages, m)


@given(
    pages=access_patterns(max_size=200),
    tracker_capacity=st.sampled_from([4, 8, 16]),
)
@settings(max_examples=100, deadline=None)
def test_predictor_misses_monotone_in_size(pages, tracker_capacity):
    tracker = StackDistanceTracker(initial_capacity=tracker_capacity)
    predictor = ResizePredictor()
    for i, page in enumerate(pages):
        predictor.record(float(i), tracker.access(page))
    predictions = predictor.predict(
        CAPACITIES, window_s=0.0, period_start=0.0, period_end=float(len(pages)) + 1.0
    )
    counts = [p.num_disk_accesses for p in predictions]
    for smaller, larger in zip(counts, counts[1:]):
        assert smaller >= larger
    for prediction in predictions:
        assert prediction.num_disk_accesses == naive_lru_misses(
            pages, prediction.capacity_pages
        )
