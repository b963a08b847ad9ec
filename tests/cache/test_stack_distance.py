"""Streaming stack distances: correctness against a brute-force LRU stack."""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stack_distance import COLD, StackDistanceTracker
from repro.errors import SimulationError


def brute_force_distances(accesses: List[int]) -> List[int]:
    """Reference implementation with an explicit LRU stack."""
    stack: List[int] = []  # MRU first
    out = []
    for page in accesses:
        if page in stack:
            depth = stack.index(page)
            out.append(depth)
            stack.remove(page)
        else:
            out.append(COLD)
        stack.insert(0, page)
    return out


class TestBasics:
    def test_docstring_example(self):
        tracker = StackDistanceTracker()
        got = [tracker.access(p) for p in (1, 2, 1, 2, 3, 1)]
        assert got == [-1, -1, 1, 1, -1, 2]

    def test_repeated_access_is_distance_zero(self):
        tracker = StackDistanceTracker()
        tracker.access(7)
        assert tracker.access(7) == 0
        assert tracker.access(7) == 0

    def test_cold_for_every_new_page(self):
        tracker = StackDistanceTracker()
        assert [tracker.access(p) for p in range(5)] == [COLD] * 5
        assert tracker.distinct_pages == 5

    def test_forget_makes_page_cold_again(self):
        tracker = StackDistanceTracker()
        tracker.access(1)
        tracker.forget(1)
        assert tracker.access(1) == COLD

    def test_forget_unknown_page_is_noop(self):
        tracker = StackDistanceTracker()
        tracker.forget(42)
        assert tracker.distinct_pages == 0

    def test_rejects_tiny_capacity(self):
        with pytest.raises(SimulationError):
            StackDistanceTracker(initial_capacity=2)


class TestAgainstBruteForce:
    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=25), max_size=300)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, accesses):
        tracker = StackDistanceTracker()
        got = [tracker.access(p) for p in accesses]
        assert got == brute_force_distances(accesses)

    def test_compaction_preserves_distances(self):
        # A tiny capacity forces many compactions.
        tracker = StackDistanceTracker(initial_capacity=8)
        accesses = [i % 5 for i in range(200)] + list(range(100, 130)) * 3
        got = [tracker.access(p) for p in accesses]
        assert got == brute_force_distances(accesses)

    def test_compaction_grows_when_needed(self):
        tracker = StackDistanceTracker(initial_capacity=8)
        accesses = list(range(64))  # 64 distinct pages > initial capacity
        got = [tracker.access(p) for p in accesses]
        assert got == [COLD] * 64
        # All pages still tracked: re-scanning them in the same order means
        # each one has exactly 63 distinct pages above it in the stack.
        assert [tracker.access(p) for p in range(64)] == [63] * 64


def reference_with_forget(ops) -> List[int]:
    """Brute-force stack with interleaved forgets; distances for accesses."""
    stack: List[int] = []  # MRU first
    out = []
    for op, page in ops:
        if op == "forget":
            if page in stack:
                stack.remove(page)
            continue
        if page in stack:
            out.append(stack.index(page))
            stack.remove(page)
        else:
            out.append(COLD)
        stack.insert(0, page)
    return out


class TestCompaction:
    """The index-space renumbering (and its live-count bookkeeping)."""

    def test_growth_path_expands_capacity(self):
        tracker = StackDistanceTracker(initial_capacity=4)
        for page in range(4):
            tracker.access(page)
        assert tracker._capacity == 4
        # All four indices are live, so compaction must grow, not just
        # renumber: needed = 2 * live > capacity.
        tracker.access(4)
        assert tracker._capacity == 8
        assert tracker.distinct_pages == 5
        assert [tracker.access(p) for p in range(5)] == [4] * 5

    def test_distances_survive_repeated_compaction(self):
        tracker = StackDistanceTracker(initial_capacity=8)
        accesses = ([0, 1, 2] * 40) + list(range(10, 20)) + ([1, 11] * 20)
        got = [tracker.access(p) for p in accesses]
        assert got == brute_force_distances(accesses)

    def test_live_count_matches_tree_total_throughout(self):
        tracker = StackDistanceTracker(initial_capacity=8)
        for i in range(100):
            tracker.access(i % 7)
            assert tracker._live == tracker._tree.total

    def test_forget_then_compact(self):
        # Forgotten pages leave holes in the index space; compaction must
        # drop them and later distances must not count them.
        ops = []
        for i in range(30):
            ops.append(("access", i % 6))
            if i % 5 == 4:
                ops.append(("forget", i % 6))
        tracker = StackDistanceTracker(initial_capacity=8)
        got = []
        for op, page in ops:
            if op == "forget":
                tracker.forget(page)
            else:
                got.append(tracker.access(page))
            assert tracker._live == tracker._tree.total
        assert got == reference_with_forget(ops)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["access", "forget"]),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_forget_interaction_matches_reference(self, ops):
        tracker = StackDistanceTracker(initial_capacity=8)
        got = []
        for op, page in ops:
            if op == "forget":
                tracker.forget(page)
            else:
                got.append(tracker.access(page))
        assert got == reference_with_forget(ops)
        assert tracker._live == tracker._tree.total


class TestAccessArray:
    def test_matches_per_call_access(self):
        import numpy as np

        rng = np.random.default_rng(0)
        pages = rng.integers(0, 25, 500)
        batch = StackDistanceTracker(initial_capacity=8).access_array(pages)
        loop = StackDistanceTracker(initial_capacity=8)
        assert batch.tolist() == [loop.access(int(p)) for p in pages]

    def test_empty_input(self):
        out = StackDistanceTracker().access_array([])
        assert out.size == 0

    def test_empty_batch_between_batches_is_a_no_op(self):
        """The streaming service feeds whatever batches arrive, including
        empty ones -- they must not perturb the tracker state."""
        import numpy as np

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

        tracker = StackDistanceTracker()
        cache = LRUCache(capacity)
        for page in accesses:
            depth = tracker.access(page)
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
        import numpy as np

        from repro.verify.oracles import naive_stack_distances

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
        for page in prefill:
            loop.access(page)
        looped = [loop.access(page) for page in pages]

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
        import numpy as np

        from repro.cache.stack_distance import count_earlier_above

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
        import numpy as np

        from repro.cache.stack_distance import BLOCK

        assert BLOCK == 1 << 16
        rng = np.random.default_rng(n)
        # Zipf reuse plus a band of cold pages, so distances both stay
        # inside one block and reach back across block boundaries.
        pages = np.where(
            rng.random(n) < 0.9, rng.zipf(1.2, n) % 3000, rng.integers(0, 10**9, n)
        ).astype(np.int64)
        loop = StackDistanceTracker()
        access = loop.access
        expected = [access(page) for page in pages.tolist()]
        assert StackDistanceTracker().access_array(pages).tolist() == expected
        split = StackDistanceTracker()
        cut = n // 3
        parts = [split.access_array(pages[:cut]), split.access_array(pages[cut:])]
        assert np.concatenate(parts).tolist() == expected

    def test_forget_in_array_style(self):
        tracker = StackDistanceTracker()
        tracker.access_array([1, 2, 3])
        tracker.forget(2)
        tracker.forget(99)
        assert tracker.distinct_pages == 2
        assert tracker.access_array([2, 1, 3]).tolist() == [COLD, 2, 2]


class TestCallStyles:
    def test_access_then_access_array_raises(self):
        tracker = StackDistanceTracker()
        tracker.access(1)
        with pytest.raises(SimulationError, match="access_array"):
            tracker.access_array([1, 2])

    def test_access_array_then_access_raises(self):
        tracker = StackDistanceTracker()
        tracker.access_array([])
        with pytest.raises(SimulationError, match="access"):
            tracker.access(1)

    def test_rejects_non_integer_pages(self):
        with pytest.raises(SimulationError):
            StackDistanceTracker().access_array([1.5, 2.0])
