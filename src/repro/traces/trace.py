"""The trace container: timestamped page accesses to the disk cache.

A trace is the paper's unit of workload (Fig. 6(b)): the sequence of
accesses issued to the disk cache, independent of cache size or power
management.  Stored as parallel numpy arrays for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import TraceError
from repro.traces.zipf import MASS_FRACTION
from repro.units import PAGE_SIZE


@dataclass(frozen=True)
class Trace:
    """Timestamped page accesses.

    ``times[i]`` is the arrival time in seconds of the access to page
    ``pages[i]``.  Page numbers index the data set laid out by a
    :class:`~repro.traces.fileset.FileSet`; the optional ``files`` array
    records the owning file of each access (used by the synthesizer).
    """

    times: np.ndarray
    pages: np.ndarray
    page_size: int = PAGE_SIZE
    files: Optional[np.ndarray] = None
    #: Per-access write flag (None = read-only workload).
    writes: Optional[np.ndarray] = None
    #: Free-form provenance (generator parameters, transforms applied).
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        pages = np.asarray(self.pages, dtype=np.int64)
        if times.shape != pages.shape or times.ndim != 1:
            raise TraceError("times and pages must be 1-D arrays of equal length")
        if not np.all(np.isfinite(times)):
            raise TraceError("trace timestamps must be finite")
        if times.size and np.any(np.diff(times) < 0.0):
            raise TraceError("trace timestamps must be non-decreasing")
        if times.size and times[0] < 0.0:
            raise TraceError("trace timestamps must be non-negative")
        if np.any(pages < 0):
            raise TraceError("page numbers must be non-negative")
        if self.page_size <= 0:
            raise TraceError("page size must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pages", pages)
        if self.files is not None:
            files = np.asarray(self.files, dtype=np.int64)
            if files.shape != times.shape:
                raise TraceError("files array must align with times")
            object.__setattr__(self, "files", files)
        if self.writes is not None:
            writes = np.asarray(self.writes, dtype=bool)
            if writes.shape != times.shape:
                raise TraceError("writes array must align with times")
            object.__setattr__(self, "writes", writes)

    # --- basic shape ----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def num_accesses(self) -> int:
        return len(self)

    @property
    def duration_s(self) -> float:
        """Time span covered, from 0 to the last access."""
        if self.times.size == 0:
            return 0.0
        return float(self.times[-1])

    @property
    def bytes_accessed(self) -> int:
        """Total bytes moved through the disk cache."""
        return self.num_accesses * self.page_size

    @property
    def data_rate(self) -> float:
        """Average bytes/second over the trace duration."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.bytes_accessed / self.duration_s

    @property
    def write_fraction(self) -> float:
        """Fraction of accesses that are writes (0 for read-only traces)."""
        if self.writes is None or self.num_accesses == 0:
            return 0.0
        return float(self.writes.mean())

    @property
    def unique_pages(self) -> int:
        """Number of distinct pages touched (working-set size in pages)."""
        if self.num_accesses == 0:
            return 0
        return int(np.unique(self.pages).size)

    @property
    def footprint_bytes(self) -> int:
        """Bytes of distinct data touched."""
        return self.unique_pages * self.page_size

    # --- characterisation -----------------------------------------------------

    def measured_popularity(self, mass_fraction: float = MASS_FRACTION) -> float:
        """The paper's popularity ratio, measured from the trace itself.

        Pages are ranked by access count; the metric is the footprint of
        the hottest pages receiving ``mass_fraction`` of accesses, divided
        by the trace's total footprint.
        """
        if self.num_accesses == 0:
            raise TraceError("popularity of an empty trace is undefined")
        _, counts = np.unique(self.pages, return_counts=True)
        order = np.argsort(-counts, kind="stable")
        cum = np.cumsum(counts[order]) / counts.sum()
        needed = int(np.searchsorted(cum, mass_fraction, side="left")) + 1
        return needed / counts.size

    def slice_time(self, start_s: float, end_s: float) -> "Trace":
        """Sub-trace with accesses in ``[start_s, end_s)``, times preserved."""
        if end_s < start_s:
            raise TraceError("slice end precedes start")
        lo = int(np.searchsorted(self.times, start_s, side="left"))
        hi = int(np.searchsorted(self.times, end_s, side="left"))
        return Trace(
            times=self.times[lo:hi],
            pages=self.pages[lo:hi],
            page_size=self.page_size,
            files=None if self.files is None else self.files[lo:hi],
            writes=None if self.writes is None else self.writes[lo:hi],
            meta=dict(self.meta),
        )

    def with_meta(self, **entries: object) -> "Trace":
        """Copy with extra provenance entries."""
        meta = dict(self.meta)
        meta.update(entries)
        return Trace(
            times=self.times,
            pages=self.pages,
            page_size=self.page_size,
            files=self.files,
            writes=self.writes,
            meta=meta,
        )
