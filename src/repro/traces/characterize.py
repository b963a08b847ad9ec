"""Workload characterisation: the statistics the paper sweeps, measured.

Given any trace (generated, transformed or imported), compute the three
characteristics the paper's evaluation varies -- data-set size, data
rate, popularity -- plus the reuse structure that determines how the
cache and the disk will behave: the reuse-distance histogram, the
miss-ratio curve and the per-window rate profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cache.profile import build_profile
from repro.cache.stack_distance import COLD
from repro.errors import TraceError
from repro.traces.trace import Trace
from repro.units import GB, MB


@dataclass(frozen=True)
class TraceProfile:
    """Measured characteristics of one trace."""

    num_accesses: int
    duration_s: float
    data_rate_bytes_s: float
    footprint_bytes: int
    popularity: float
    #: Fraction of accesses that re-reference an already-seen page.
    reuse_fraction: float
    #: Miss ratio at a few representative cache sizes (bytes -> ratio).
    miss_ratio_at: Dict[int, float] = field(default_factory=dict)
    #: Mean access rate per window, bytes/second.
    rate_profile: List[float] = field(default_factory=list)

    def summary_rows(self) -> List[Dict[str, object]]:
        """Rows for :func:`repro.experiments.formatting.render_table`."""
        rows: List[Dict[str, object]] = [
            {"metric": "accesses", "value": self.num_accesses},
            {"metric": "duration (s)", "value": round(self.duration_s, 1)},
            {
                "metric": "data rate (MB/s)",
                "value": round(self.data_rate_bytes_s / MB, 2),
            },
            {
                "metric": "footprint (GB)",
                "value": round(self.footprint_bytes / GB, 3),
            },
            {"metric": "popularity (hot-90%)", "value": round(self.popularity, 3)},
            {"metric": "reuse fraction", "value": round(self.reuse_fraction, 3)},
        ]
        for size, ratio in sorted(self.miss_ratio_at.items()):
            rows.append(
                {
                    "metric": f"miss ratio @ {size / GB:g} GB",
                    "value": round(ratio, 4),
                }
            )
        return rows


def characterize(
    trace: Trace,
    cache_sizes_bytes: List[int] | None = None,
    rate_windows: int = 10,
) -> TraceProfile:
    """Measure a trace's workload characteristics in one pass."""
    if trace.num_accesses == 0:
        raise TraceError("cannot characterise an empty trace")
    if rate_windows < 1:
        raise TraceError("need at least one rate window")
    if cache_sizes_bytes is None:
        cache_sizes_bytes = [1 * GB, 4 * GB, 16 * GB, 64 * GB]

    profile = build_profile(trace, warm_start=False)

    sizes_pages = [max(size // trace.page_size, 1) for size in cache_sizes_bytes]
    misses = profile.miss_counts(sizes_pages).tolist()
    miss_ratio_at = {
        size: count / trace.num_accesses
        for size, count in zip(cache_sizes_bytes, misses)
    }

    cold = int(np.count_nonzero(profile.depths == COLD))
    reuse_fraction = 1.0 - cold / trace.num_accesses

    duration = max(trace.duration_s, 1e-9)
    edges = np.linspace(0.0, duration, rate_windows + 1)
    counts, _ = np.histogram(trace.times, bins=edges)
    window = duration / rate_windows
    rate_profile = (counts * trace.page_size / window).tolist()

    return TraceProfile(
        num_accesses=trace.num_accesses,
        duration_s=trace.duration_s,
        data_rate_bytes_s=trace.data_rate,
        footprint_bytes=trace.footprint_bytes,
        popularity=trace.measured_popularity(),
        reuse_fraction=reuse_fraction,
        miss_ratio_at=miss_ratio_at,
        rate_profile=rate_profile,
    )
