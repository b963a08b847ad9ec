"""Disk-IO and idle-interval prediction at candidate memory sizes.

This is the machinery of paper Section IV-B and Fig. 4.  The joint power
manager records, for every disk-cache access in the current period, the
pair ``(timestamp, stack depth)``.  For any candidate memory size ``m``
(in pages):

* the access goes to *disk* iff it is cold or its depth ``>= m`` (the LRU
  inclusion property),
* the disk's idle intervals are the gaps between consecutive disk
  accesses, filtered by the aggregation window.

So one pass of bookkeeping answers "what would disk IO look like at every
memory size" without re-running the workload -- the paper's key trick.

:meth:`ResizePredictor.predict` exploits two structural facts to stay
cheap on large candidate grids:

* Disk-access *counts* for every candidate come from one sort of the
  depth array plus one ``searchsorted`` over the candidate sizes --
  ``O(N log N + C log N)`` instead of ``O(C x N)`` masking.
* Disk-access *sets* are nested across capacities (growing ``m`` only
  removes accesses), so two candidates with equal disk counts have the
  exact same disk accesses -- their idle intervals are computed once and
  shared.  Real candidate grids hit long plateaus (most sizes beyond the
  working set see identical traffic), so this collapses the per-candidate
  interval extraction to one pass per *distinct* disk set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.cache.stack_distance import COLD
from repro.errors import SimulationError
from repro.stats.intervals import IdleIntervals, extract_idle_intervals

#: Initial sample-buffer capacity; grows geometrically.
_INITIAL_BUFFER = 1024


@dataclass(frozen=True)
class CandidatePrediction:
    """Predicted disk behaviour at one candidate memory size."""

    #: Candidate size, pages.
    capacity_pages: int
    #: ``n_d``: predicted disk accesses in the period.
    num_disk_accesses: int
    #: Predicted idle intervals (``n_i`` = ``idle.count``).
    idle: IdleIntervals
    #: ``N``: total disk-cache accesses observed in the period.
    num_cache_accesses: int


class ResizePredictor:
    """Accumulates ``(time, depth)`` samples and predicts per-size disk IO.

    Samples live in preallocated numpy buffers that grow geometrically,
    so both the per-access :meth:`record` and the batch
    :meth:`record_array` append without per-sample Python list overhead.
    """

    def __init__(self) -> None:
        self._times = np.empty(_INITIAL_BUFFER, dtype=np.float64)
        self._depths = np.empty(_INITIAL_BUFFER, dtype=np.int64)
        self._size = 0
        self._last_time = -np.inf

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        """Ensure room for ``extra`` more samples."""
        needed = self._size + extra
        if needed <= self._times.size:
            return
        capacity = max(self._times.size * 2, needed)
        times = np.empty(capacity, dtype=np.float64)
        depths = np.empty(capacity, dtype=np.int64)
        times[: self._size] = self._times[: self._size]
        depths[: self._size] = self._depths[: self._size]
        self._times = times
        self._depths = depths

    def record(self, time_s: float, depth: int) -> None:
        """Record one disk-cache access and its stack depth."""
        if time_s < self._last_time:
            raise SimulationError("accesses must be recorded in time order")
        if depth < COLD:
            raise SimulationError(f"invalid depth {depth}")
        self._reserve(1)
        self._times[self._size] = time_s
        self._depths[self._size] = depth
        self._size += 1
        self._last_time = time_s

    def record_array(self, times, depths) -> None:
        """Batch :meth:`record`: append whole ``(times, depths)`` arrays.

        Identical semantics to calling :meth:`record` per element --
        including the validation errors -- but the monotonicity and depth
        checks run vectorized and the samples land in the buffers with
        two slice copies.
        """
        times = np.asarray(times, dtype=np.float64)
        depths = np.asarray(depths, dtype=np.int64)
        if times.shape != depths.shape or times.ndim != 1:
            raise SimulationError("times and depths must be 1-D arrays of equal length")
        count = int(times.size)
        if count == 0:
            return
        if times[0] < self._last_time or np.any(np.diff(times) < 0.0):
            raise SimulationError("accesses must be recorded in time order")
        bad = np.flatnonzero(depths < COLD)
        if bad.size:
            raise SimulationError(f"invalid depth {int(depths[bad[0]])}")
        self._reserve(count)
        self._times[self._size : self._size + count] = times
        self._depths[self._size : self._size + count] = depths
        self._size += count
        self._last_time = float(times[-1])

    def reset(self) -> None:
        """Drop the samples (called at each period boundary).

        The buffers are kept: the next period reuses the allocation.
        """
        self._size = 0
        self._last_time = -np.inf

    def predict(
        self,
        capacities_pages: Sequence[int],
        window_s: float,
        period_start: float,
        period_end: float,
    ) -> List[CandidatePrediction]:
        """Predict disk IO for each candidate memory size, in one pass.

        The leading and trailing gaps to the period boundaries count as
        idle time (the disk really is idle then), matching how the online
        monitor observes intervals.
        """
        if period_end < period_start:
            raise SimulationError("period end precedes period start")
        times = self._times[: self._size]
        depths = self._depths[: self._size]
        total = self._size

        # One sort answers every candidate's disk count: an access is a
        # disk access at capacity m iff it is cold or its depth >= m.
        # Mapping cold misses to +inf depth makes both cases "depth >= m",
        # so count(m) = N - searchsorted(sorted_depths, m).
        sortable = np.where(depths == COLD, np.iinfo(np.int64).max, depths)
        sortable.sort()

        predictions: List[CandidatePrediction] = []
        by_count: Dict[int, IdleIntervals] = {}
        for capacity in capacities_pages:
            if capacity < 0:
                raise SimulationError("capacity must be non-negative")
            num_disk = total - int(np.searchsorted(sortable, capacity, side="left"))
            idle = by_count.get(num_disk)
            if idle is None:
                # Nested disk sets: equal counts => identical disk
                # accesses, so the interval extraction is shared.
                is_disk = (depths == COLD) | (depths >= capacity)
                idle = extract_idle_intervals(
                    times[is_disk],
                    window_s,
                    period_start=period_start,
                    period_end=period_end,
                )
                by_count[num_disk] = idle
            predictions.append(
                CandidatePrediction(
                    capacity_pages=int(capacity),
                    num_disk_accesses=num_disk,
                    idle=idle,
                    num_cache_accesses=total,
                )
            )
        return predictions
