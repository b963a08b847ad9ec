"""A literal extended LRU list (paper Section IV-B, Fig. 3).

"Different from the LRU list used in operating systems to manage the disk
cache, our LRU list records both resident memory pages and replaced memory
pages as if the replaced pages are still stored in additional physical
memory."

This class mirrors the paper's worked example exactly: a bounded list of
page tags ordered by recency, split conceptually into resident (top
``resident_pages`` items) and replaced ("ghost") entries, with one counter
per list position.  It is the readable reference implementation; the
production path is :class:`~repro.cache.stack_distance.StackDistanceTracker`
and :meth:`~repro.cache.profile.TraceProfile.hit_counts`, which compute
identical counters from one numpy pass (equivalence is property-tested).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.cache.stack_distance import COLD
from repro.errors import SimulationError


class ExtendedLRUList:
    """Resident + replaced page list with per-position hit counters."""

    def __init__(self, total_slots: int, resident_pages: int) -> None:
        if total_slots <= 0:
            raise SimulationError("the LRU list needs at least one slot")
        if not 0 <= resident_pages <= total_slots:
            raise SimulationError("resident part must fit inside the list")
        self._slots = total_slots
        self._resident = resident_pages
        self._list: "OrderedDict[int, None]" = OrderedDict()  # MRU last
        self.counters: List[int] = [0] * total_slots

    # --- inspection -----------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return self._slots

    @property
    def resident_pages(self) -> int:
        return self._resident

    def contents(self) -> List[int]:
        """Page tags from most to least recently used."""
        return list(reversed(self._list.keys()))

    def position_of(self, page: int) -> Optional[int]:
        """0-based position from the top, or None if absent."""
        contents = self.contents()
        try:
            return contents.index(page)
        except ValueError:
            return None

    def is_resident(self, page: int) -> bool:
        """Would this page be in memory (top ``resident_pages`` items)?"""
        position = self.position_of(page)
        return position is not None and position < self._resident

    # --- operation --------------------------------------------------------------

    def access(self, page: int) -> int:
        """Record an access; return its 0-based list position (:data:`COLD`
        if the page fell off the list or was never seen).

        The position is the stack depth: the access hits a memory of ``m``
        pages iff ``0 <= position < m``.  Counters index positions 0-based
        (the paper's "i-th counter" with i starting at 1).
        """
        position = self.position_of(page)
        if position is not None:
            self.counters[position] += 1
            self._list.move_to_end(page)
            return position
        if len(self._list) >= self._slots:
            self._list.popitem(last=False)
        self._list[page] = None
        return COLD

    def resize_resident(self, resident_pages: int) -> None:
        """Move the resident/replaced boundary (memory grew or shrank).

        The list itself is unchanged -- that is the whole point of the
        structure: one list serves every candidate memory size.
        """
        if not 0 <= resident_pages <= self._slots:
            raise SimulationError("resident part must fit inside the list")
        self._resident = resident_pages

    def misses_if_resident(self, resident_pages: int) -> int:
        """Hits the counters predict would become misses at a smaller size,
        i.e. the number of recorded accesses at positions >= ``resident_pages``.

        Add the cold misses (tracked by the caller) for total disk accesses.
        """
        if not 0 <= resident_pages <= self._slots:
            raise SimulationError("size must fit inside the list")
        return sum(self.counters[resident_pages:])
