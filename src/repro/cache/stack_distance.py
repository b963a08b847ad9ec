"""Mattson stack distances: per access in ``O(log n)``, per batch in numpy.

The stack (LRU) distance of an access is the number of *distinct* pages
referenced since the previous access to the same page.  Under LRU, an
access hits a cache of ``m`` pages iff its stack distance is smaller than
``m`` -- this is the inclusion property the paper's extended LRU list
exploits (Section II-C, [33]).

:class:`StackDistanceTracker` offers two call styles over one stack, and
an instance serves exactly one of them:

* :meth:`~StackDistanceTracker.access` -- one access at a time, for
  callers that interleave each depth with other per-access work (the
  joint manager's scalar loop).  Classic algorithm: keep, for every
  page, the index of its most recent access; maintain a Fenwick (binary
  indexed) tree with a 1 at each index that is currently "the most
  recent access of some page".  The distance of a new access to page
  ``p`` previously seen at index ``i`` is the number of 1s strictly
  after ``i``.  The tree is compacted when the index space fills: live
  indices (one per distinct page) are renumbered in order.  Compaction
  is ``O(P log P)`` for ``P`` distinct pages and happens every
  ``O(capacity)`` accesses, so the amortised cost stays logarithmic.
* :meth:`~StackDistanceTracker.access_array` -- a whole page array at
  once, with no per-access Python.  The live stack is kept as arrays
  and each block of at most :data:`BLOCK` accesses is one exact array
  pass; see :meth:`~StackDistanceTracker._access_block`.
"""

from __future__ import annotations

from typing import Dict, Optional

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

_ACCESS = "access"
_ARRAY = "access_array"


class _Fenwick:
    """Prefix-sum tree over a fixed index range."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        while i <= self.size:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries in ``[0, index]``."""
        i = index + 1
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total

    @property
    def total(self) -> int:
        return self.prefix_sum(self.size - 1) if self.size else 0


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

    >>> tracker = StackDistanceTracker()
    >>> [tracker.access(p) for p in (1, 2, 1, 2, 3, 1)]
    [-1, -1, 1, 1, -1, 2]
    >>> StackDistanceTracker().access_array([1, 2, 1, 2, 3, 1]).tolist()
    [-1, -1, 1, 1, -1, 2]

    One instance serves one call style: the first :meth:`access` or
    :meth:`access_array` call fixes it, and calling the other raises
    :class:`~repro.errors.SimulationError`.
    """

    def __init__(self, initial_capacity: int = 1 << 16) -> None:
        if initial_capacity < 4:
            raise SimulationError("initial capacity too small")
        self._style: Optional[str] = None
        # --- access(): Fenwick state ------------------------------------
        self._capacity = initial_capacity
        self._tree = _Fenwick(self._capacity)
        self._last_index: Dict[int, int] = {}
        self._next_index = 0
        #: Running count of live indices (1s in the tree).  Equal to
        #: ``self._tree.total`` at all times, but maintained incrementally
        #: so ``access`` pays one prefix sum instead of two.
        self._live = 0
        # --- access_array(): the live stack as arrays --------------------
        #: Live pages, ascending, and the stamp of each one's last access.
        self._keys = np.empty(0, dtype=np.int64)
        self._stamps = np.empty(0, dtype=np.int64)
        #: The live stamps, ascending: a page's index here is its
        #: position in the LRU stack counted from the bottom.
        self._recency = np.empty(0, dtype=np.int64)
        #: Stamp of the next access.
        self._clock = 0

    def _claim(self, style: str) -> None:
        if self._style == style:
            return
        if self._style is not None:
            raise SimulationError(
                f"this stack-distance tracker serves {self._style}(); "
                f"use a separate tracker for {style}()"
            )
        self._style = style

    @property
    def distinct_pages(self) -> int:
        """Number of pages seen so far (and not forgotten)."""
        if self._style == _ARRAY:
            return int(self._keys.size)
        return len(self._last_index)

    def access(self, page: int) -> int:
        """Record an access; return its stack distance (:data:`COLD` if new).

        Distance 0 means the page was the most recently used one; under
        LRU the access hits a cache of ``m`` pages iff ``0 <= d < m``.
        """
        if self._style != _ACCESS:
            self._claim(_ACCESS)
        if self._next_index >= self._capacity:
            self._compact()
        previous = self._last_index.get(page)
        index = self._next_index
        self._next_index += 1
        if previous is None:
            distance = COLD
            self._live += 1
        else:
            # Distinct pages accessed strictly after `previous` -- exactly
            # the pages above this one in the LRU stack (depth 0 = MRU).
            # The live count replaces the O(log n) ``_tree.total`` sum.
            distance = self._live - self._tree.prefix_sum(previous)
            self._tree.add(previous, -1)
        self._tree.add(index, +1)
        self._last_index[page] = index
        return distance

    def access_array(self, pages) -> np.ndarray:
        """Batch :meth:`access`: distances for a whole page array.

        The same distances :meth:`access` would return element by
        element, computed as array passes over blocks of at most
        :data:`BLOCK` accesses.  Consecutive calls continue one stream,
        so any split of a page sequence into calls (empty ones included)
        returns the same concatenated distances.
        """
        self._claim(_ARRAY)
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

    def forget(self, page: int) -> None:
        """Remove a page from the stack (e.g. after trimming history)."""
        if self._style == _ARRAY:
            slot = int(np.searchsorted(self._keys, page))
            if slot < self._keys.size and self._keys[slot] == page:
                position = np.searchsorted(self._recency, self._stamps[slot])
                self._recency = np.delete(self._recency, position)
                self._keys = np.delete(self._keys, slot)
                self._stamps = np.delete(self._stamps, slot)
            return
        previous = self._last_index.pop(page, None)
        if previous is not None:
            self._tree.add(previous, -1)
            self._live -= 1

    def _compact(self) -> None:
        """Renumber live indices to the front, growing if nearly full."""
        live = sorted(self._last_index.items(), key=lambda item: item[1])
        needed = max(len(live) * 2, 4)
        if needed > self._capacity:
            self._capacity = max(self._capacity * 2, needed)
        self._tree = _Fenwick(self._capacity)
        self._last_index = {}
        for new_index, (page, _) in enumerate(live):
            self._last_index[page] = new_index
            self._tree.add(new_index, +1)
        self._next_index = len(live)
        self._live = len(live)
        if self._next_index >= self._capacity:
            raise SimulationError("stack-distance compaction failed to make room")
