"""Miss-ratio curves: construction, knee finding, working sets.

The joint manager consumes miss counts at a handful of candidate sizes;
capacity planning wants the whole curve.  This module builds the exact
LRU miss-ratio curve of a trace in one pass (Mattson), locates its
*knee* (where buying more memory stops paying) and estimates Denning
working-set sizes -- the quantities behind the "memory size close to the
data set" behaviour the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cache.counters import DepthCounters
from repro.cache.stack_distance import StackDistanceTracker
from repro.errors import TraceError
from repro.traces.trace import Trace


@dataclass(frozen=True)
class MissRatioCurve:
    """Exact LRU miss ratios at every cache size ``0..max_pages``."""

    #: ``ratios[m]`` = miss ratio with a cache of ``m`` pages.
    ratios: np.ndarray
    page_size: int
    total_accesses: int
    cold_misses: int

    @property
    def max_pages(self) -> int:
        return int(self.ratios.size - 1)

    @property
    def floor(self) -> float:
        """The unavoidable (cold-miss) ratio at infinite cache."""
        if self.total_accesses == 0:
            return 0.0
        return self.cold_misses / self.total_accesses

    def ratio_at(self, pages: int) -> float:
        """Miss ratio at ``pages`` (sizes beyond the curve hit the floor)."""
        if pages < 0:
            raise TraceError("cache size must be non-negative")
        if pages >= self.ratios.size:
            return float(self.ratios[-1])
        return float(self.ratios[pages])

    def knee_pages(self, epsilon: float = 0.01) -> int:
        """Smallest size whose ratio is within ``epsilon`` of the floor.

        The paper's manager gravitates here whenever memory power is in
        its normal range (see the hw-sensitivity experiment): beyond the
        knee, extra memory buys less than ``epsilon`` of hit ratio.
        """
        if not 0.0 < epsilon < 1.0:
            raise TraceError("epsilon must be in (0, 1)")
        target = self.ratios[-1] + epsilon
        below = np.flatnonzero(self.ratios <= target)
        return int(below[0]) if below.size else self.max_pages

    def bytes_for_ratio(self, target_ratio: float) -> int:
        """Smallest cache (bytes) achieving ``target_ratio`` or better.

        Raises when the target lies below the cold-miss floor.
        """
        if not 0.0 <= target_ratio <= 1.0:
            raise TraceError("target ratio must be in [0, 1]")
        reachable = np.flatnonzero(self.ratios <= target_ratio)
        if reachable.size == 0:
            raise TraceError(
                f"ratio {target_ratio} unreachable; the cold-miss floor is "
                f"{float(self.ratios[-1]):.4f}"
            )
        return int(reachable[0]) * self.page_size


def build_mrc(trace: Trace, max_pages: int | None = None) -> MissRatioCurve:
    """One-pass exact LRU miss-ratio curve of a trace."""
    if trace.num_accesses == 0:
        raise TraceError("cannot build a curve from an empty trace")
    counters = DepthCounters()
    counters.record_many(StackDistanceTracker().access_array(trace.pages))
    if max_pages is None:
        max_pages = max(counters.max_depth + 1, 1)
    misses = counters.miss_ratio_curve(max_pages)
    return MissRatioCurve(
        ratios=misses / trace.num_accesses,
        page_size=trace.page_size,
        total_accesses=trace.num_accesses,
        cold_misses=counters.cold_misses,
    )


def working_set_pages(
    trace: Trace, window_s: float, sample_times: Sequence[float] | None = None
) -> float:
    """Denning working set: mean distinct pages touched per ``window_s``.

    Sampled at ``sample_times`` (defaults to non-overlapping windows over
    the trace).  The joint manager's chosen size typically tracks the
    working set of roughly one period.
    """
    if trace.num_accesses == 0:
        raise TraceError("cannot measure the working set of an empty trace")
    if window_s <= 0:
        raise TraceError("window must be positive")
    duration = trace.duration_s
    if sample_times is None:
        count = max(int(duration // window_s), 1)
        sample_times = [i * window_s for i in range(count)]
    sizes = []
    for start in sample_times:
        end = start + window_s
        lo = int(np.searchsorted(trace.times, start, side="left"))
        hi = int(np.searchsorted(trace.times, end, side="left"))
        if hi > lo:
            sizes.append(np.unique(trace.pages[lo:hi]).size)
    if not sizes:
        raise TraceError("no sample window contains any access")
    return float(np.mean(sizes))
