"""Resident-page LRU disk cache.

Models the Linux page cache at page granularity: a capacity-bounded LRU
over page numbers.  ``access`` returns whether the page was resident
(memory access) or not (disk access + load).  The capacity can be resized
at runtime; shrinking evicts from the LRU end, which is what happens when
memory banks are invalidated (paper Section I).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional

from repro.errors import SimulationError


class LRUCache:
    """A page-granularity LRU cache with runtime resizing."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise SimulationError("cache capacity must be non-negative")
        self._capacity = capacity_pages
        self._pages: "OrderedDict[int, None]" = OrderedDict()
        #: Page evicted by the most recent access/load (None if none).
        self.last_evicted: Optional[int] = None

    # --- inspection -----------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def resident_pages(self) -> List[int]:
        """Pages currently cached, most recently used first."""
        return list(reversed(self._pages.keys()))

    # --- operation --------------------------------------------------------------

    def access(self, page: int) -> bool:
        """Touch ``page``; return True on hit, False on miss.

        A miss loads the page, evicting the least recently used page if
        the cache is full.  With zero capacity every access misses and
        nothing is cached.
        """
        self.last_evicted = None
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        if self._capacity > 0:
            if len(self._pages) >= self._capacity:
                evicted, _ = self._pages.popitem(last=False)
                self.last_evicted = evicted
            self._pages[page] = None
        return False

    def touch_run(self, pages: Iterable[int]) -> None:
        """Refresh recency for a run of *resident* pages, in order.

        Equivalent to calling :meth:`access` on each page when every one
        is already cached (a pure hit run): no evictions, no loads, and
        ``last_evicted`` ends up None.  Raises ``KeyError`` on a
        non-resident page -- the vectorized write-replay kernel uses
        that as a loud signal that its hit classification was wrong.
        """
        move = self._pages.move_to_end
        for page in pages:
            move(page)
        self.last_evicted = None

    def refresh_run(self, loads: List[int], recency: Iterable[int]) -> None:
        """Load the non-resident ``loads``, then make ``recency`` the most
        recently used pages, in order.

        What a run of accesses that evicts nothing leaves behind, given
        the pages it loaded and all its distinct pages in order of last
        use: one dictionary update per distinct page instead of one per
        access.  Raises instead of evicting when the loads do not fit.
        """
        cached = self._pages
        if len(cached) + len(loads) > self._capacity:
            raise SimulationError("a refreshed run would overfill the cache")
        cached.update(dict.fromkeys(loads))
        self.touch_run(recency)

    def peek(self, page: int) -> bool:
        """True if resident, without updating recency."""
        return page in self._pages

    def load(self, page: int) -> Optional[int]:
        """Insert a non-resident page; return the evicted page, if any.

        Raises if the page is already resident (use :meth:`access` for the
        common path).  With zero capacity the load is a no-op.
        """
        self.last_evicted = None
        if page in self._pages:
            raise SimulationError(f"page {page} is already resident")
        if self._capacity == 0:
            return None
        evicted = None
        if len(self._pages) >= self._capacity:
            evicted, _ = self._pages.popitem(last=False)
            self.last_evicted = evicted
        self._pages[page] = None
        return evicted

    def invalidate(self, pages: Iterable[int]) -> int:
        """Drop the given pages if resident; return how many were dropped."""
        dropped = 0
        for page in pages:
            if page in self._pages:
                del self._pages[page]
                dropped += 1
        return dropped

    def resize(self, capacity_pages: int) -> List[int]:
        """Change capacity; return the pages evicted by a shrink (LRU first)."""
        if capacity_pages < 0:
            raise SimulationError("cache capacity must be non-negative")
        self._capacity = capacity_pages
        evicted = []
        while len(self._pages) > self._capacity:
            page, _ = self._pages.popitem(last=False)
            evicted.append(page)
        return evicted

    def clear(self) -> None:
        """Invalidate everything (all banks disabled)."""
        self._pages.clear()

    def lru_page(self) -> Optional[int]:
        """The least recently used resident page, or None when empty."""
        if not self._pages:
            return None
        return next(iter(self._pages))
