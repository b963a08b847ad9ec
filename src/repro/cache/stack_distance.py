"""Mattson stack distances, one numpy pass per batch of accesses.

The stack (LRU) distance of an access is the number of *distinct* pages
referenced since the previous access to the same page.  Under LRU, an
access hits a cache of ``m`` pages iff its stack distance is smaller than
``m`` -- this is the inclusion property the paper's extended LRU list
exploits (Section II-C, [33]).

:class:`StackDistanceTracker` keeps the live stack as arrays and takes a
whole page array per call, with no per-access Python: each block of at
most :data:`BLOCK` accesses is one exact array pass (see
:meth:`~StackDistanceTracker._access_block`), and consecutive calls
continue one stream.  Profile builds, stream feeds and the joint
manager's scalar spans all go through :meth:`~StackDistanceTracker.access_array`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: Returned for the first access to a page (infinite stack distance).
COLD = -1

#: Most accesses one array pass handles.  Longer inputs are cut into
#: blocks of this size: the pass holds about a dozen ``int64`` arrays of
#: its block's length, so the cap keeps its transient memory small and
#: fixed (one unblocked pass over a 590k-access trace raised peak RSS by
#: 75 MB, and ran 4x slower out of cache).
BLOCK = 1 << 16


def count_earlier_above(prev: np.ndarray) -> np.ndarray:
    """``out[i] = #{k < i : prev[k] > prev[i]}`` for every ``i``.

    A 2-D dominance count, done bit level by bit level over the index
    ``i``.  Pad the input to ``2**levels`` entries and order it by value.
    At level ``L`` the order is grouped by ``i >> (L+1)`` and sorted by
    value inside each group; each group splits into a left half (bit
    ``L`` of ``i`` clear) and a right half.  A right-half ``i`` counts
    the left-half entries ordered after it -- one ``cumsum`` -- and a
    stable partition of every group by bit ``L`` (one scatter) yields
    the order for level ``L-1``.  Every pair ``k < i`` is counted at
    exactly one level, the highest bit where ``k`` and ``i`` differ, and
    at the bottom the order is the identity.  Equal values count as not
    above each other.
    """
    n = int(prev.size)
    levels = max(n - 1, 0).bit_length()
    size = 1 << levels
    # One int64 per entry: the running count above bit ``shift``, the
    # index below it.  Padding takes the top ranks and the top indices,
    # so it sits after every real entry and never counts towards one.
    shift = levels + 1
    packed = np.empty(size, dtype=np.int64)
    packed[:n] = np.argsort(prev, kind="stable")
    packed[n:] = np.arange(n, size)
    position = np.arange(size, dtype=np.int64)
    for level in range(levels - 1, -1, -1):
        width = 1 << level
        right = (packed >> level) & 1
        left = 1 - right
        lefts_before = np.cumsum(left) - left
        group_lefts = (position >> (level + 1)) << level
        packed += (right * (group_lefts + width - lefts_before)) << shift
        target = group_lefts + lefts_before + right * (
            width + position - 2 * lefts_before
        )
        partitioned = np.empty_like(packed)
        partitioned[target] = packed
        packed = partitioned
    return packed[:n] >> shift


class StackDistanceTracker:
    """Streaming LRU stack-distance computation.

    >>> StackDistanceTracker().access_array([1, 2, 1, 2, 3, 1]).tolist()
    [-1, -1, 1, 1, -1, 2]

    Distance 0 means the page was the most recently used one; under LRU
    the access hits a cache of ``m`` pages iff ``0 <= d < m``, and
    :data:`COLD` marks a first touch.
    """

    def __init__(self) -> None:
        #: Live pages, ascending, and the stamp of each one's last access.
        self._keys = np.empty(0, dtype=np.int64)
        self._stamps = np.empty(0, dtype=np.int64)
        #: The live stamps, ascending: a page's index here is its
        #: position in the LRU stack counted from the bottom.
        self._recency = np.empty(0, dtype=np.int64)
        #: Stamp of the next access.
        self._clock = 0

    @property
    def distinct_pages(self) -> int:
        """Number of pages seen so far."""
        return int(self._keys.size)

    def access_array(self, pages) -> np.ndarray:
        """Stack distances of a whole page array, in access order.

        Computed as array passes over blocks of at most :data:`BLOCK`
        accesses.  Consecutive calls continue one stream, so any split of
        a page sequence into calls (empty ones included) returns the same
        concatenated distances.
        """
        pages = np.asarray(pages)
        out = np.empty(pages.size, dtype=np.int64)
        if pages.size == 0:
            return out
        if pages.ndim != 1 or pages.dtype.kind not in "iu":
            raise SimulationError("pages must be a 1-D array of integers")
        pages = pages.astype(np.int64, copy=False)
        for start in range(0, pages.size, BLOCK):
            stop = min(start + BLOCK, pages.size)
            out[start:stop] = self._access_block(pages[start:stop])
        return out

    def _access_block(self, pages: np.ndarray) -> np.ndarray:
        """Distances of one non-empty block; advances the array stack.

        Lay the ``P`` live pages out at positions ``-P..-1`` by recency
        and the block's accesses at ``0..B-1``.  Access ``i`` whose page
        was last used at position ``v_i`` (``-inf`` when cold) has
        distance ``(i - v_i - 1) - #{k < i : v_k > v_i}``: every position
        strictly between ``v_i`` and ``i`` holds one page, minus the
        positions whose page comes back before ``i`` -- exactly those
        ``v_k`` with ``k < i``.
        """
        n = int(pages.size)
        live = int(self._keys.size)
        # Previous position of each access.  Within the block: one stable
        # sort groups equal pages in access order.
        order = np.argsort(pages, kind="stable")
        ordered = pages[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        prev = np.empty(n, dtype=np.int64)
        repeat = np.flatnonzero(~first)
        prev[order[repeat]] = order[repeat - 1]
        # First touches in the block: the live stack, or cold.
        heads = ordered[first]
        slot = np.searchsorted(self._keys, heads)
        known = slot < live
        known[known] = self._keys[slot[known]] == heads[known]
        known_slot = slot[known]
        depth_rank = np.searchsorted(self._recency, self._stamps[known_slot])
        cold = -live - 1
        head_prev = np.full(heads.size, cold, dtype=np.int64)
        head_prev[known] = depth_rank - live
        prev[order[first]] = head_prev

        distances = np.arange(n, dtype=np.int64) - prev - 1
        distances -= count_earlier_above(prev)
        distances[prev == cold] = COLD

        # State update: touched pages move to the top, in last-use order.
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        stamps = self._clock + order[last]
        keep = np.ones(live, dtype=bool)
        keep[depth_rank] = False
        self._recency = np.concatenate((self._recency[keep], np.sort(stamps)))
        self._stamps[known_slot] = stamps[known]
        new = ~known
        self._keys = np.insert(self._keys, slot[new], heads[new])
        self._stamps = np.insert(self._stamps, slot[new], stamps[new])
        self._clock += n
        return distances
