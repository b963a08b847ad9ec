"""The trace container: timestamped page accesses to the disk cache.

A trace is the paper's unit of workload (Fig. 6(b)): the sequence of
accesses issued to the disk cache, independent of cache size or power
management.  Stored as parallel numpy arrays for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Type, TypeVar

import numpy as np

from repro.errors import TraceError
from repro.traces.zipf import MASS_FRACTION
from repro.units import PAGE_SIZE

T = TypeVar("T")


def validate_accesses(
    times: np.ndarray,
    pages: np.ndarray,
    writes: Optional[np.ndarray],
    error: Type[Exception],
) -> None:
    """Raise ``error`` unless the arrays form a well-formed access batch.

    ``times`` (float64) and ``pages`` (int64) must be 1-D and of equal
    length, the times finite, non-negative and non-decreasing, the pages
    non-negative, and ``writes`` (None, or a bool array) aligned with
    them.  Every entry point checks its input here: :class:`Trace` with
    ``TraceError``, the streaming ``feed`` with ``SimulationError``.
    """
    if times.ndim != 1 or times.shape != pages.shape:
        raise error("times and pages must be 1-D arrays of equal length")
    if not bool(np.all(np.isfinite(times))):
        raise error("access times must be finite")
    if times.size > 1 and bool(np.any(np.diff(times) < 0)):
        raise error("access times must be non-decreasing")
    if times.size and times[0] < 0.0:
        raise error("access times must be non-negative")
    if bool(np.any(pages < 0)):
        raise error("page numbers must be non-negative")
    if writes is not None and writes.shape != times.shape:
        raise error("writes must align with times")


def offset_ids(
    values: np.ndarray, offset: int, error: Type[Exception], what: str
) -> np.ndarray:
    """``values + offset``, raising ``error`` where int64 would wrap.

    numpy wraps an overflowing sum silently into colliding or negative
    ids; ``what`` names the shifted part in the message.  The composers
    that give each part its own id range (:func:`repro.traces.compose.
    interleave` with ``TraceError``, the fleet's shard merge with
    ``SimulationError``) shift through here.
    """
    top = int(values.max()) if values.size else 0
    if top + offset > np.iinfo(np.int64).max:
        raise error(f"{what} overflow int64 after its offset ({top} + {offset})")
    return values + offset


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
        writes = None if self.writes is None else np.asarray(self.writes, dtype=bool)
        validate_accesses(times, pages, writes, TraceError)
        if self.page_size <= 0:
            raise TraceError("page size must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pages", pages)
        object.__setattr__(self, "writes", writes)
        if self.files is not None:
            files = np.asarray(self.files, dtype=np.int64)
            if files.shape != times.shape:
                raise TraceError("files array must align with times")
            object.__setattr__(self, "files", files)

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
    def has_writes(self) -> bool:
        """True when at least one access is a write."""
        return self.writes is not None and bool(self.writes.any())

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

    # --- immutability and derived values --------------------------------------

    def _arrays(self):
        arrays = (self.times, self.pages, self.writes, self.files)
        return [array for array in arrays if array is not None]

    def freeze(self) -> "Trace":
        """Make every array, and every array it views, read-only in place.

        A frozen trace can be shared by readers that must not see each
        other's edits, and it keeps its derived values (:meth:`derived`).
        """
        for array in self._arrays():
            while isinstance(array, np.ndarray):
                array.setflags(write=False)
                array = array.base
        return self

    @property
    def immutable(self) -> bool:
        """True when every array is read-only down to the one owning its data."""
        for array in self._arrays():
            while isinstance(array, np.ndarray):
                if array.flags.writeable:
                    return False
                array = array.base
            if array is not None and not isinstance(array, bytes):
                return False
        return True

    def derived(self, name: str, compute: Callable[["Trace"], T]) -> T:
        """``compute(self)``, kept under ``name`` while the trace is immutable.

        A writable trace recomputes on every call, so an in-place edit is
        never masked by a stale value.
        """
        if not self.immutable:
            return compute(self)
        values = self.__dict__.setdefault("_derived", {})
        if name not in values:
            values[name] = compute(self)
        return values[name]

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
