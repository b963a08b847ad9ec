"""Streaming stack distances: correctness against the explicit LRU stack."""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stack_distance import (
    BLOCK,
    COLD,
    StackDistanceTracker,
    count_earlier_above,
)
from repro.errors import SimulationError
from repro.verify.oracles import naive_stack_distances


def _distances(pages) -> List[int]:
    """Distances of ``pages`` from one fresh tracker, one call."""
    return StackDistanceTracker().access_array(pages).tolist()


class TestBasics:
    def test_docstring_example(self):
        assert _distances([1, 2, 1, 2, 3, 1]) == [-1, -1, 1, 1, -1, 2]

    def test_repeated_access_is_distance_zero(self):
        assert _distances([7, 7, 7]) == [COLD, 0, 0]

    def test_cold_for_every_new_page(self):
        tracker = StackDistanceTracker()
        assert tracker.access_array(range(5)).tolist() == [COLD] * 5
        assert tracker.distinct_pages == 5


class TestAgainstBruteForce:
    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=25), max_size=300)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, accesses):
        got = StackDistanceTracker().access_array(
            np.asarray(accesses, dtype=np.int64)
        )
        assert got.tolist() == naive_stack_distances(accesses)

    def test_rescan_of_many_distinct_pages(self):
        tracker = StackDistanceTracker()
        assert tracker.access_array(range(64)).tolist() == [COLD] * 64
        # Re-scanning them in the same order means each one has exactly
        # 63 distinct pages above it in the stack.
        assert tracker.access_array(range(64)).tolist() == [63] * 64


class TestAccessArray:
    def test_matches_per_call_access(self):
        """One page per call (a stream fed single accesses) continues one
        stack exactly as one whole-array call does."""
        rng = np.random.default_rng(0)
        pages = rng.integers(0, 25, 500)
        batch = StackDistanceTracker().access_array(pages)
        loop = StackDistanceTracker()
        per_call = [int(loop.access_array(pages[i : i + 1])[0]) for i in range(500)]
        assert batch.tolist() == per_call == naive_stack_distances(pages.tolist())

    def test_empty_input(self):
        out = StackDistanceTracker().access_array([])
        assert out.size == 0

    def test_empty_batch_between_batches_is_a_no_op(self):
        """The streaming service feeds whatever batches arrive, including
        empty ones -- they must not perturb the tracker state."""
        rng = np.random.default_rng(1)
        pages = rng.integers(0, 25, 200)
        interleaved = StackDistanceTracker()
        parts = [
            interleaved.access_array(pages[:80]),
            interleaved.access_array(pages[:0]),
            interleaved.access_array(pages[80:]),
        ]
        straight = StackDistanceTracker().access_array(pages)
        assert np.concatenate(parts).tolist() == straight.tolist()


class TestLRUConsistency:
    """distance < m  <=>  hit in an m-page LRU cache."""

    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=15), max_size=150),
        capacity=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_distance_predicts_lru_hit(self, accesses, capacity):
        from repro.cache.lru import LRUCache

        depths = StackDistanceTracker().access_array(
            np.asarray(accesses, dtype=np.int64)
        )
        cache = LRUCache(capacity)
        for page, depth in zip(accesses, depths.tolist()):
            hit = cache.access(page)
            assert hit == (depth != COLD and depth < capacity)


def _split(pages, sizes):
    """Cut ``pages`` into consecutive batches of the given sizes (the
    last batch takes the rest; sizes may be zero)."""
    batches, start = [], 0
    for size in sizes:
        batches.append(pages[start : start + size])
        start += size
    batches.append(pages[start:])
    return batches


@st.composite
def _streams(draw):
    """A prefill and a page stream over a small pool of page ids, dense
    (``0..k``) or sparse and large (up to ``2**62``)."""
    if draw(st.booleans()):
        pool = list(range(draw(st.integers(min_value=1, max_value=20))))
    else:
        pool = draw(
            st.lists(
                st.integers(min_value=0, max_value=2**62),
                min_size=1,
                max_size=20,
                unique=True,
            )
        )
    picks = st.lists(st.sampled_from(pool), max_size=120)
    return draw(picks), draw(picks)


class TestAccessArrayProperties:
    @given(
        stream=_streams(),
        sizes=st.lists(st.integers(min_value=0, max_value=40), max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_batches_loop_and_oracle_agree(self, stream, sizes):
        prefill, pages = stream
        expected = naive_stack_distances(prefill + pages)[len(prefill) :]

        whole = StackDistanceTracker()
        whole.access_array(np.asarray(prefill, dtype=np.int64))
        one_call = whole.access_array(np.asarray(pages, dtype=np.int64))

        split = StackDistanceTracker()
        split.access_array(np.asarray(prefill, dtype=np.int64))
        parts = [
            split.access_array(np.asarray(batch, dtype=np.int64))
            for batch in _split(pages, sizes)
        ]

        loop = StackDistanceTracker()
        loop.access_array(np.asarray(prefill, dtype=np.int64))
        looped = [int(loop.access_array([page])[0]) for page in pages]

        assert one_call.dtype == np.int64
        assert one_call.tolist() == expected
        assert np.concatenate(parts).tolist() == expected
        assert looped == expected
        assert split.distinct_pages == loop.distinct_pages == len(
            set(prefill + pages)
        )

    @given(values=st.lists(st.integers(min_value=-5, max_value=20), max_size=70))
    @settings(max_examples=100, deadline=None)
    def test_count_earlier_above_matches_brute_force(self, values):
        got = count_earlier_above(np.asarray(values, dtype=np.int64))
        expected = [
            sum(1 for earlier in values[:i] if earlier > value)
            for i, value in enumerate(values)
        ]
        assert got.tolist() == expected

    @pytest.mark.parametrize(
        "n", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 17) + 3]
    )
    def test_block_edges(self, n):
        assert BLOCK == 1 << 16
        rng = np.random.default_rng(n)
        # A small hot pool plus a band of cold pages, so distances both
        # stay inside one block and reach back across block boundaries
        # (and the explicit stack stays shallow enough to be quick).
        pages = np.where(
            rng.random(n) < 0.98, rng.zipf(1.2, n) % 150, rng.integers(0, 10**9, n)
        ).astype(np.int64)
        expected = naive_stack_distances(pages.tolist())
        assert StackDistanceTracker().access_array(pages).tolist() == expected
        split = StackDistanceTracker()
        cut = n // 3
        parts = [split.access_array(pages[:cut]), split.access_array(pages[cut:])]
        assert np.concatenate(parts).tolist() == expected


class TestCallStyles:
    def test_rejects_non_integer_pages(self):
        with pytest.raises(SimulationError):
            StackDistanceTracker().access_array([1.5, 2.0])
