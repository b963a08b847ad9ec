"""The worked example of paper Section IV-B / Figs. 3-4, verbatim.

Ten accesses (1, 2, 3, 5, 2, 1, 4, 6, 5, 2) against an 8-slot extended
LRU list whose top four slots are resident:

* counters end as (0, 0, 1, 1, 2, 0, 0, 0) (1-indexed in the paper);
* 8 of the 10 accesses are disk accesses at 4 resident pages;
* at 3 pages the count becomes 9; at 5 pages it drops to 6 ("two disk
  accesses can be avoided");
* beyond 6 pages nothing changes.
"""

from __future__ import annotations

import numpy as np

from repro.cache.ghost import ExtendedLRUList
from repro.cache.profile import build_profile
from repro.cache.stack_distance import COLD, StackDistanceTracker
from repro.traces.trace import Trace

ACCESSES = (1, 2, 3, 5, 2, 1, 4, 6, 5, 2)


def _profile():
    trace = Trace(
        times=np.arange(len(ACCESSES), dtype=np.float64),
        pages=np.asarray(ACCESSES, dtype=np.int64),
    )
    return build_profile(trace, warm_start=False)


def test_counters_match_figure_3():
    lru = ExtendedLRUList(total_slots=8, resident_pages=4)
    for page in ACCESSES:
        lru.access(page)
    # Paper: "the values of the counters are (0, 0, 1, 1, 2, 0, 0, 0)".
    assert lru.counters == [0, 0, 1, 1, 2, 0, 0, 0]
    # The i-th counter is the profile's hit-count step at size i.
    assert np.diff(_profile().hit_counts(np.arange(9))).tolist() == lru.counters


def test_list_order_after_first_four_accesses():
    lru = ExtendedLRUList(total_slots=8, resident_pages=4)
    for page in (1, 2, 3, 5):
        lru.access(page)
    # Paper: "the LRU list is (5, 3, 2, 1)".
    assert lru.contents() == [5, 3, 2, 1]


def test_disk_access_counts_per_memory_size():
    profile = _profile()

    # Six cold (first) accesses can never be avoided: 1, 2, 3, 5, 4, 6.
    assert int(np.count_nonzero(profile.depths == COLD)) == 6

    # Paper: 8 disk accesses at 4 pages (6 cold + pages 5 and 2 reloaded);
    # shrinking to 3 pages adds one miss -> 9; growing to 5 pages avoids
    # the two reloads -> 6; "further increasing the memory size has the
    # same disk IO".
    assert profile.miss_counts([4, 3, 5, 6, 8, 100]).tolist() == [
        8, 9, 6, 6, 6, 6
    ]


def test_ghost_list_and_tracker_agree_on_the_example():
    lru = ExtendedLRUList(total_slots=8, resident_pages=4)
    tracker = StackDistanceTracker()
    for page in ACCESSES:
        position = lru.access(page)
        depth = tracker.access(page)
        assert position == depth


def test_fig4_idle_interval_reconstruction():
    """Fig. 4: which accesses hit the disk at 4, 2 and 5 pages.

    With the example's depths, accesses 5 and 6 (pages 2, 1 at depths
    2, 3) are memory accesses at 4 pages but disk accesses at 2 pages,
    splitting the first idle interval; accesses 9 and 10 (pages 5, 2 at
    depth 4) become memory accesses at 5 pages, merging the second idle
    interval into the tail.
    """
    tracker = StackDistanceTracker()
    depths = [tracker.access(page) for page in ACCESSES]

    def is_disk(depth: int, memory_pages: int) -> bool:
        return depth == COLD or depth >= memory_pages

    at4 = [is_disk(d, 4) for d in depths]
    at2 = [is_disk(d, 2) for d in depths]
    at5 = [is_disk(d, 5) for d in depths]

    # 4 pages: accesses 5 and 6 (0-indexed 4, 5) hit memory.
    assert at4 == [True] * 4 + [False, False] + [True] * 4
    # 2 pages: they become disk accesses (I1 splits into I1', I1'').
    assert at2 == [True] * 10
    # 5 pages: the final reloads hit memory too (I2 merges onward).
    assert at5 == [True] * 4 + [False, False] + [True, True] + [False, False]
