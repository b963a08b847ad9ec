"""Resize predictor: disk IO and idle intervals at candidate sizes.

The key property (the paper's central trick): the predictor's per-size
miss counts and idle intervals must equal what an actual LRU cache of
that size would produce on the same access stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LRUCache
from repro.cache.predictor import ResizePredictor
from repro.cache.stack_distance import StackDistanceTracker
from repro.errors import SimulationError


def build_predictor(times, pages):
    predictor = ResizePredictor()
    depths = StackDistanceTracker().access_array(np.asarray(pages, dtype=np.int64))
    predictor.record_array(times, depths)
    return predictor


class TestAgainstRealCache:
    @given(
        pages=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=150),
        capacity=st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=80, deadline=None)
    def test_miss_count_matches_real_lru(self, pages, capacity):
        times = np.arange(len(pages), dtype=float)
        predictor = build_predictor(times, pages)
        [prediction] = predictor.predict(
            [capacity], window_s=0.0, period_start=0.0, period_end=len(pages)
        )
        cache = LRUCache(capacity)
        real_misses = sum(0 if cache.access(p) else 1 for p in pages)
        assert prediction.num_disk_accesses == real_misses
        assert prediction.num_cache_accesses == len(pages)

    @given(
        pages=st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=100)
    )
    @settings(max_examples=40, deadline=None)
    def test_misses_decrease_with_memory(self, pages):
        times = np.arange(len(pages), dtype=float)
        predictor = build_predictor(times, pages)
        sizes = [0, 1, 2, 4, 8, 16]
        predictions = predictor.predict(
            sizes, window_s=0.0, period_start=0.0, period_end=len(pages)
        )
        misses = [p.num_disk_accesses for p in predictions]
        assert all(a >= b for a, b in zip(misses, misses[1:]))


class TestIdleIntervals:
    def test_interval_merging_with_memory_growth(self):
        # Two pages, reused: with memory 0 everything is a disk access;
        # with memory 2 only the cold misses remain and intervals merge.
        times = [0.0, 10.0, 20.0, 30.0]
        pages = [1, 2, 1, 2]
        predictor = build_predictor(times, pages)
        small, large = predictor.predict(
            [0, 2], window_s=0.0, period_start=0.0, period_end=40.0
        )
        assert small.num_disk_accesses == 4
        assert small.idle.lengths.tolist() == [10.0, 10.0, 10.0, 10.0]
        assert large.num_disk_accesses == 2
        assert large.idle.lengths.tolist() == [10.0, 30.0]

    def test_window_filtering_applied(self):
        times = [0.0, 0.05, 10.0]
        pages = [1, 2, 3]
        predictor = build_predictor(times, pages)
        [prediction] = predictor.predict(
            [0], window_s=0.1, period_start=0.0, period_end=10.0
        )
        assert prediction.idle.lengths.tolist() == [pytest.approx(9.95)]

    def test_empty_period(self):
        predictor = ResizePredictor()
        [prediction] = predictor.predict(
            [4], window_s=0.1, period_start=0.0, period_end=600.0
        )
        assert prediction.num_disk_accesses == 0
        assert prediction.idle.lengths.tolist() == [600.0]


class TestBookkeeping:
    def test_reset(self):
        predictor = build_predictor([0.0, 1.0], [1, 1])
        assert len(predictor) == 2
        predictor.reset()
        assert len(predictor) == 0

    def test_rejects_time_regression(self):
        predictor = ResizePredictor()
        predictor.record_array([5.0], [-1])
        with pytest.raises(SimulationError):
            predictor.record_array([4.0], [-1])

    def test_rejects_invalid_depth(self):
        with pytest.raises(SimulationError):
            ResizePredictor().record_array([0.0], [-2])

    def test_rejects_negative_capacity(self):
        predictor = build_predictor([0.0], [1])
        with pytest.raises(SimulationError):
            predictor.predict([-1], window_s=0.0, period_start=0.0, period_end=1.0)

    def test_rejects_inverted_period(self):
        predictor = ResizePredictor()
        with pytest.raises(SimulationError):
            predictor.predict([1], window_s=0.0, period_start=5.0, period_end=1.0)


class TestRecordArray:
    @given(
        pages=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=150),
        split=st.integers(min_value=0, max_value=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalent_to_scalar_record(self, pages, split):
        """Two batches record what one sample per call records."""
        times = np.arange(len(pages), dtype=float)
        depths = StackDistanceTracker().access_array(pages)

        scalar = ResizePredictor()
        for i in range(len(pages)):
            scalar.record_array(times[i : i + 1], depths[i : i + 1])

        split = min(split, len(pages))
        batched = ResizePredictor()
        batched.record_array(times[:split], depths[:split])
        batched.record_array(times[split:], depths[split:])

        assert len(batched) == len(scalar)
        sizes = [0, 1, 3, 8, 16]
        kwargs = dict(window_s=0.0, period_start=0.0, period_end=float(len(pages)))
        for fast, slow in zip(
            batched.predict(sizes, **kwargs), scalar.predict(sizes, **kwargs)
        ):
            assert fast.num_disk_accesses == slow.num_disk_accesses
            assert fast.idle.lengths.tolist() == slow.idle.lengths.tolist()

    def test_buffer_growth_preserves_samples(self):
        import repro.cache.predictor as predictor_mod

        n = predictor_mod._INITIAL_BUFFER * 2 + 17
        predictor = ResizePredictor()
        predictor.record_array(np.arange(n, dtype=float), np.zeros(n, dtype=np.int64))
        predictor.record_array([float(n)], [0])
        assert len(predictor) == n + 1
        [p] = predictor.predict(
            [0], window_s=0.0, period_start=0.0, period_end=float(n + 1)
        )
        assert p.num_disk_accesses == n + 1

    def test_empty_batch_is_a_no_op(self):
        predictor = ResizePredictor()
        predictor.record_array(np.empty(0), np.empty(0, dtype=np.int64))
        assert len(predictor) == 0

    def test_empty_batch_between_batches_is_a_no_op(self):
        """Streaming feeds may be empty; state must carry across them."""
        predictor = ResizePredictor()
        predictor.record_array(np.array([0.0, 1.0]), np.array([0, 3]))
        predictor.record_array(np.empty(0), np.empty(0, dtype=np.int64))
        predictor.record_array(np.array([2.0]), np.array([1]))
        assert len(predictor) == 3
        # An empty batch must not reset the monotonicity watermark.
        with pytest.raises(SimulationError):
            predictor.record_array(np.array([1.5]), np.array([0]))

    def test_rejects_time_regression_across_batches(self):
        predictor = ResizePredictor()
        predictor.record_array([5.0], [-1])
        with pytest.raises(SimulationError, match="time order"):
            predictor.record_array(np.array([4.0]), np.array([0]))

    def test_rejects_time_regression_within_batch(self):
        predictor = ResizePredictor()
        with pytest.raises(SimulationError, match="time order"):
            predictor.record_array(np.array([1.0, 0.5]), np.array([0, 0]))

    def test_rejects_invalid_depth(self):
        predictor = ResizePredictor()
        with pytest.raises(SimulationError, match="invalid depth -2"):
            predictor.record_array(np.array([0.0, 1.0]), np.array([0, -2]))

    def test_rejects_shape_mismatch(self):
        predictor = ResizePredictor()
        with pytest.raises(SimulationError):
            predictor.record_array(np.array([0.0, 1.0]), np.array([0]))

    def test_reset_after_batches(self):
        predictor = ResizePredictor()
        predictor.record_array(np.array([0.0, 1.0]), np.array([-1, 0]))
        predictor.reset()
        assert len(predictor) == 0
        predictor.record_array([0.5], [-1])  # time order restarts after reset
        assert len(predictor) == 1


class TestSharedIdleExtraction:
    def test_plateau_candidates_share_idle_objects(self):
        # Candidates past the working set see identical disk streams;
        # the one-pass predict computes their intervals once.
        times = [0.0, 10.0, 20.0, 30.0]
        pages = [1, 2, 1, 2]
        predictor = build_predictor(times, pages)
        a, b, c = predictor.predict(
            [2, 8, 16], window_s=0.0, period_start=0.0, period_end=40.0
        )
        assert a.num_disk_accesses == b.num_disk_accesses == c.num_disk_accesses == 2
        assert a.idle is b.idle and b.idle is c.idle
        assert a.idle.lengths.tolist() == [10.0, 30.0]
