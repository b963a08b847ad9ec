"""Trace composition: phases in sequence, tenants in parallel.

Real servers see workloads that change phase (a batch job after the
daily peak) and share storage between tenants.  Two pure composition
operators build such traces from simpler ones:

* :func:`concatenate` plays traces back to back (the second starts when
  the first ends, plus an optional gap);
* :func:`interleave` merges concurrent traces on one timeline, shifting
  each tenant's pages into its own region so footprints do not collide
  (``shared_pages=True`` keeps page identities for shared-data setups).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.traces.trace import Trace, offset_ids


def _common_page_size(traces: Sequence[Trace]) -> int:
    sizes = {trace.page_size for trace in traces}
    if len(sizes) != 1:
        raise TraceError(f"traces disagree on page size: {sorted(sizes)}")
    return sizes.pop()


def _writes_or_none(traces: Sequence[Trace]) -> Optional[np.ndarray]:
    if all(trace.writes is None for trace in traces):
        return None
    parts = [
        trace.writes
        if trace.writes is not None
        else np.zeros(trace.num_accesses, dtype=bool)
        for trace in traces
    ]
    return np.concatenate(parts)


def concatenate(traces: Sequence[Trace], gap_s: float = 0.0) -> Trace:
    """Play the traces one after another, separated by ``gap_s``."""
    traces = list(traces)
    if not traces:
        raise TraceError("nothing to concatenate")
    if any(trace.num_accesses == 0 for trace in traces):
        raise TraceError("cannot concatenate an empty trace")
    if gap_s < 0:
        raise TraceError("gap must be non-negative")
    page_size = _common_page_size(traces)

    times_parts = []
    offset = 0.0
    for trace in traces:
        times_parts.append(trace.times + offset)
        offset += trace.duration_s + gap_s
    times = np.concatenate(times_parts)
    pages = np.concatenate([trace.pages for trace in traces])
    writes = _writes_or_none(traces)
    return Trace(
        times=times,
        pages=pages,
        page_size=page_size,
        writes=writes,
        meta={"composed": "concatenate", "parts": len(traces)},
    )


def interleave(
    traces: Sequence[Trace], shared_pages: bool = False
) -> Trace:
    """Merge concurrent traces on one timeline.

    Unless ``shared_pages`` is set, tenant ``i``'s pages are shifted past
    every earlier tenant's footprint, so the merged workload's data set
    is the union of disjoint per-tenant data sets -- the multi-tenant
    cache-contention scenario.
    """
    traces = list(traces)
    if not traces:
        raise TraceError("nothing to interleave")
    if any(trace.num_accesses == 0 for trace in traces):
        raise TraceError("cannot interleave an empty trace")
    page_size = _common_page_size(traces)

    shifted_pages = []
    offset = 0
    for part, trace in enumerate(traces):
        if shared_pages:
            shifted_pages.append(trace.pages)
        else:
            shifted_pages.append(
                offset_ids(trace.pages, offset, TraceError, f"part {part}'s pages")
            )
            offset += int(trace.pages.max()) + 1
    times = np.concatenate([trace.times for trace in traces])
    pages = np.concatenate(shifted_pages)
    writes = _writes_or_none(traces)

    order = np.argsort(times, kind="stable")
    return Trace(
        times=times[order],
        pages=pages[order],
        page_size=page_size,
        writes=None if writes is None else writes[order],
        meta={
            "composed": "interleave",
            "parts": len(traces),
            "shared_pages": shared_pages,
        },
    )
