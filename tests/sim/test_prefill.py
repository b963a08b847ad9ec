"""Warm-start page selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import prefill
from repro.sim.prefill import warm_start_pages
from repro.traces.trace import Trace


def make_trace(pages):
    return Trace(
        times=np.arange(len(pages), dtype=float),
        pages=np.asarray(pages, dtype=np.int64),
    )


class TestWarmStart:
    def test_single_touch_pages_excluded(self):
        pages = warm_start_pages(make_trace([1, 2, 3, 2, 3, 3]))
        assert set(pages) == {2, 3}

    def test_hottest_last(self):
        pages = warm_start_pages(make_trace([1, 1, 2, 2, 2, 2, 3, 3, 3]))
        assert pages[-1] == 2
        assert pages[0] == 1

    def test_recency_breaks_count_ties(self):
        # Pages 5 and 7 both accessed twice; 7 more recently.
        pages = warm_start_pages(make_trace([5, 7, 5, 7]))
        assert pages == [5, 7]

    def test_empty_trace(self):
        assert warm_start_pages(make_trace([])) == []

    def test_min_accesses_knob(self):
        trace = make_trace([1, 1, 2, 2, 2])
        assert set(warm_start_pages(trace, min_accesses=3)) == {2}

    def test_all_unique_trace_gives_nothing(self):
        assert warm_start_pages(make_trace([1, 2, 3, 4])) == []


class TestDerivedCache:
    """Warm-start pages are kept only on traces whose arrays cannot change."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = []
        original = prefill._warm_start_pages

        def counting(trace, min_accesses):
            calls.append(min_accesses)
            return original(trace, min_accesses)

        monkeypatch.setattr(prefill, "_warm_start_pages", counting)
        return calls

    def test_frozen_trace_computed_once_per_threshold(self, computed):
        trace = make_trace([1, 1, 2, 2, 2, 3]).freeze()
        assert warm_start_pages(trace) == warm_start_pages(trace) == [1, 2]
        assert warm_start_pages(trace, min_accesses=3) == [2]
        assert computed == [2, 3]

    def test_returned_list_is_the_callers_own(self):
        trace = make_trace([1, 1, 2, 2, 2]).freeze()
        first = warm_start_pages(trace)
        first.append(99)
        first[0] = -1
        assert warm_start_pages(trace) == [1, 2]

    def test_in_place_edit_changes_a_writable_trace(self, computed):
        trace = make_trace([1, 1, 2, 2, 2])
        assert warm_start_pages(trace) == [1, 2]
        trace.pages[1] = 4
        assert warm_start_pages(trace) == [2]
        assert len(computed) == 2

    def test_read_only_view_of_writable_base_not_cached(self):
        base = np.asarray([1, 1, 2, 2, 2], dtype=np.int64)
        view = base[:]
        view.setflags(write=False)
        trace = Trace(times=np.arange(5, dtype=float), pages=view)
        trace.times.setflags(write=False)
        assert not trace.immutable
        assert warm_start_pages(trace) == [1, 2]
        base[1] = 4
        assert warm_start_pages(trace) == [2]
