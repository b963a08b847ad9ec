"""Property tests: the numpy Mattson pass vs the explicit LRU stack.

Hypothesis drives :meth:`StackDistanceTracker.access_array` -- in one
call and in arbitrary batches -- and checks it against
:func:`repro.verify.oracles.naive_stack_distances`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stack_distance import COLD, StackDistanceTracker
from repro.verify.oracles import naive_depth_histogram, naive_stack_distances
from repro.verify.strategies import access_patterns, working_set_loops


def _batched(pages, batch: int):
    """Distances of ``pages`` fed to one tracker ``batch`` accesses a call."""
    tracker = StackDistanceTracker()
    out = []
    for start in range(0, len(pages), batch):
        out.extend(tracker.access_array(pages[start : start + batch]).tolist())
    return out


@given(pages=access_patterns(), batch=st.sampled_from([1, 4, 5, 8, 16, 300]))
@settings(max_examples=150, deadline=None)
def test_batches_match_naive(pages, batch):
    """Distances agree with the explicit stack for every pattern family,
    whatever the batch size (1 = one access per call, 300 = one call)."""
    assert _batched(np.asarray(pages, dtype=np.int64), batch) == (
        naive_stack_distances(pages)
    )


@given(pages=working_set_loops(boundary=4, max_laps=60))
@settings(max_examples=100, deadline=None)
def test_boundary_sized_loops(pages):
    """Working sets sized around a power of two, fed in batches of four."""
    assert _batched(np.asarray(pages, dtype=np.int64), 4) == (
        naive_stack_distances(pages)
    )


@given(pages=access_patterns())
@settings(max_examples=150, deadline=None)
def test_cold_returned_exactly_once_per_distinct_page(pages):
    tracker = StackDistanceTracker()
    depths = tracker.access_array(np.asarray(pages, dtype=np.int64))
    cold_pages = [page for page, depth in zip(pages, depths) if depth == COLD]
    # Every distinct page is cold exactly once, and nothing else is.
    assert Counter(cold_pages) == Counter(set(pages))
    assert tracker.distinct_pages == len(set(pages))


@given(pages=access_patterns())
@settings(max_examples=100, deadline=None)
def test_distances_bounded_by_distinct_pages(pages):
    """A non-cold distance counts distinct pages since the last touch, so
    it can never reach the number of distinct pages seen so far."""
    depths = StackDistanceTracker().access_array(np.asarray(pages, dtype=np.int64))
    seen = set()
    for page, depth in zip(pages, depths.tolist()):
        if page in seen:
            assert 0 <= depth < len(seen)
        else:
            assert depth == COLD
        seen.add(page)


@given(pages=access_patterns())
@settings(max_examples=50, deadline=None)
def test_histogram_matches_naive(pages):
    cold, hist = naive_depth_histogram(pages)
    assert cold == len(set(pages))
    assert sum(hist.values()) == len(pages) - cold
    depths = StackDistanceTracker().access_array(np.asarray(pages, dtype=np.int64))
    fast = Counter(d for d in depths.tolist() if d != COLD)
    assert dict(fast) == hist
