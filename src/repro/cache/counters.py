"""Per-depth hit counters of the extended LRU list (paper Fig. 3).

"When the referenced page is the i-th item from the top of the LRU list,
the i-th counter increases by one.  The values of these counters are used
to estimate the number of disk accesses with different memory sizes."

With 0-based depths: an access at depth ``d`` hits any cache of more than
``d`` pages.  Therefore, for a candidate size of ``m`` pages::

    misses(m) = cold_misses + #accesses with depth >= m
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import SimulationError

#: Depth value recorded for a first-ever access (no previous reference).
COLD_MISS = -1


class DepthCounters:
    """Histogram of stack depths plus a cold-miss count."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._cold = 0
        self._total = 0

    # --- recording --------------------------------------------------------------

    def record(self, depth: int) -> None:
        """Record one access at ``depth`` (:data:`COLD_MISS` for cold)."""
        if depth == COLD_MISS:
            self._cold += 1
        elif depth < 0:
            raise SimulationError(f"invalid stack depth {depth}")
        else:
            self._counts[depth] = self._counts.get(depth, 0) + 1
        self._total += 1

    def record_many(self, depths: Sequence[int]) -> None:
        """Batch :meth:`record`: one histogram update for a depth array.

        Validates the whole batch first, so an invalid depth records
        nothing.
        """
        depths = np.asarray(depths, dtype=np.int64)
        bad = np.flatnonzero(depths < COLD_MISS)
        if bad.size:
            raise SimulationError(f"invalid stack depth {int(depths[bad[0]])}")
        cold = depths == COLD_MISS
        values, counts = np.unique(depths[~cold], return_counts=True)
        for depth, count in zip(values.tolist(), counts.tolist()):
            self._counts[depth] = self._counts.get(depth, 0) + count
        self._cold += int(np.count_nonzero(cold))
        self._total += int(depths.size)

    def reset(self) -> None:
        """Start a fresh observation window (the LRU state is unaffected)."""
        self._counts.clear()
        self._cold = 0
        self._total = 0

    # --- queries ------------------------------------------------------------------

    @property
    def total_accesses(self) -> int:
        return self._total

    @property
    def cold_misses(self) -> int:
        return self._cold

    @property
    def max_depth(self) -> int:
        """Deepest recorded reuse depth, or -1 when none."""
        return max(self._counts) if self._counts else -1

    def hits_at(self, depth: int) -> int:
        """Accesses recorded exactly at ``depth``."""
        return self._counts.get(depth, 0)

    def misses_at_size(self, capacity_pages: int) -> int:
        """Disk accesses a cache of ``capacity_pages`` would see.

        Equal to cold misses plus all accesses at depth >= capacity.
        """
        if capacity_pages < 0:
            raise SimulationError("capacity must be non-negative")
        deep = sum(
            count for depth, count in self._counts.items() if depth >= capacity_pages
        )
        return self._cold + deep

    def misses_at_sizes(self, capacities: Sequence[int]) -> List[int]:
        """Vectorised :meth:`misses_at_size` for many candidates."""
        if not len(capacities):
            return []
        caps = np.asarray(capacities, dtype=np.int64)
        if np.any(caps < 0):
            raise SimulationError("capacities must be non-negative")
        if not self._counts:
            return [self._cold] * len(capacities)
        depths = np.fromiter(self._counts.keys(), dtype=np.int64, count=len(self._counts))
        counts = np.fromiter(
            self._counts.values(), dtype=np.int64, count=len(self._counts)
        )
        order = np.argsort(depths)
        depths, counts = depths[order], counts[order]
        suffix = np.concatenate((np.cumsum(counts[::-1])[::-1], [0]))
        positions = np.searchsorted(depths, caps, side="left")
        return (self._cold + suffix[positions]).tolist()

    def miss_ratio_curve(self, max_capacity: int) -> np.ndarray:
        """Miss counts for every capacity ``0..max_capacity`` inclusive."""
        if max_capacity < 0:
            raise SimulationError("capacity must be non-negative")
        return np.asarray(
            self.misses_at_sizes(list(range(max_capacity + 1))), dtype=np.int64
        )
