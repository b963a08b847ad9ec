"""Time-varying load: diurnal and on/off modulation of a trace.

The paper motivates the joint method with *varying* server workloads
("the varying workload of server systems provides opportunities...",
Section I) but evaluates at stationary operating points.  These
utilities produce the non-stationary workloads the motivation describes,
so the manager's period-by-period adaptation can be observed directly
(see ``examples/diurnal_server.py``).

Both transforms reshape a trace's *timeline* while preserving its access
sequence (pages, and hence reuse, are untouched): time is warped so that
instantaneous request rate follows the requested profile, with the same
total duration.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import TraceError
from repro.traces.chunked import ChunkedTrace, TraceChunk, chunk_trace
from repro.traces.trace import Trace

RateProfile = Callable[[float], float]


def modulate_rate(trace: Trace, profile: RateProfile, steps: int = 2048) -> Trace:
    """Warp time so the instantaneous rate tracks ``profile``.

    ``profile(t)`` is a positive relative rate for ``t`` in the original
    ``[0, duration]``; the warped trace covers the same duration and
    contains the same accesses in the same order, but their density at
    (warped) time ``t`` is proportional to ``profile`` there.  Write
    flags are dropped.
    """
    return modulate_rate_chunked(chunk_trace(trace), profile, steps).materialize()


def modulate_rate_chunked(
    source: ChunkedTrace, profile: RateProfile, steps: int = 2048
) -> ChunkedTrace:
    """:func:`modulate_rate` of a chunked stream, applied chunk by chunk.

    Accesses are redistributed by the inverse of the profile's
    normalised cumulative integral, evaluated on a ``steps`` point grid.
    The warp of access ``k`` depends only on its order statistic
    ``(k + 0.5) / n``, so it needs the stream totals up front but no
    other chunk.
    """
    n = source.num_accesses
    duration = source.duration_s
    if n is None or duration is None:
        raise TraceError("chunked modulation needs known stream totals")
    if n == 0:
        raise TraceError("cannot modulate an empty trace")
    if steps < 2:
        raise TraceError("need at least two integration steps")
    if duration <= 0:
        raise TraceError("trace has no extent to modulate")

    grid = np.linspace(0.0, duration, steps)
    rates = np.asarray([profile(t) for t in grid], dtype=float)
    if np.any(rates < 0) or not np.all(np.isfinite(rates)):
        raise TraceError("rate profile must be finite and non-negative")
    if rates.max() <= 0:
        raise TraceError("rate profile is identically zero")

    # Cumulative fraction of accesses that should have happened by grid[i].
    cumulative = np.concatenate(([0.0], np.cumsum((rates[1:] + rates[:-1]) / 2)))
    cumulative /= cumulative[-1]
    # The warped stream ends where its last access lands (np.interp is
    # elementwise, so this is the final timestamp bit for bit).
    warped_end = float(np.interp([(n - 0.5) / n], cumulative, grid)[0])

    def factory(chunk_accesses: int) -> Iterator[TraceChunk]:
        # Each access keeps its *order statistic*: the k-th access of the
        # warped stream lands where the cumulative profile reaches k/n.
        offset = 0
        for chunk in source.factory(chunk_accesses):
            positions = (np.arange(offset, offset + len(chunk)) + 0.5) / n
            yield TraceChunk(
                times=np.interp(positions, cumulative, grid),
                pages=chunk.pages,
                files=chunk.files,
            )
            offset += len(chunk)

    return ChunkedTrace(
        factory=factory,
        page_size=source.page_size,
        num_accesses=n,
        duration_s=warped_end,
        meta={**source.meta, "modulated": True},
    )


def diurnal_profile(
    duration_s: float,
    peak_to_trough: float = 5.0,
    cycles: float = 1.0,
    phase: float = 0.0,
) -> RateProfile:
    """A day/night sinusoid: rate swings ``peak_to_trough`` : 1.

    ``cycles`` full periods fit in ``duration_s``; ``phase`` (radians)
    shifts where the peak falls.
    """
    if duration_s <= 0:
        raise TraceError("duration must be positive")
    if peak_to_trough < 1.0:
        raise TraceError("peak-to-trough ratio must be >= 1")
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)

    def profile(t: float) -> float:
        angle = 2.0 * math.pi * cycles * t / duration_s + phase
        return 1.0 + amplitude * math.sin(angle)

    return profile


def onoff_profile(
    duration_s: float,
    on_fraction: float = 0.5,
    period_s: Optional[float] = None,
    off_rate: float = 0.02,
) -> RateProfile:
    """Bursty on/off load: busy plateaus separated by near-quiet valleys.

    ``period_s`` defaults to a quarter of the duration.  The off phase
    keeps a small trickle (``off_rate``) so the disk still sees the
    occasional access, as real servers do.
    """
    if duration_s <= 0:
        raise TraceError("duration must be positive")
    if not 0.0 < on_fraction < 1.0:
        raise TraceError("on fraction must be in (0, 1)")
    if off_rate < 0:
        raise TraceError("off rate must be non-negative")
    cycle = period_s if period_s is not None else duration_s / 4.0
    if cycle <= 0:
        raise TraceError("cycle period must be positive")

    def profile(t: float) -> float:
        position = (t % cycle) / cycle
        return 1.0 if position < on_fraction else off_rate

    return profile
