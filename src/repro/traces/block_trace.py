"""Import block-level IO traces as disk-cache access traces.

Lets real-world traces drive the simulators: each record is a byte-range
request (``timestamp, offset, size``) against a block device; the importer
expands it to the page accesses the disk cache would see, at the machine's
page granularity.  Two forms:

* a minimal CSV (``time,offset,size`` with a header),
* an in-memory array form for programmatic use,

each also as a bounded-memory :class:`ChunkedTrace`
(:func:`load_block_csv_chunked`, :func:`from_requests_chunked`) for
request logs whose page expansion would not fit in RAM.

Only reads and writes that reach the cache matter to the paper's system,
so no distinction is made between them (the paper's traces are web-server
reads).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.traces.chunked import ChunkedTrace, expand_requests
from repro.traces.trace import Trace
from repro.units import PAGE_SIZE

PathLike = Union[str, Path]


def _validate_requests(
    times_arr: np.ndarray,
    offsets_arr: np.ndarray,
    sizes_arr: np.ndarray,
    page_size: int,
    intra_request_gap_s: float,
) -> None:
    if not (times_arr.shape == offsets_arr.shape == sizes_arr.shape):
        raise TraceError("times, offsets and sizes must align")
    if times_arr.size == 0:
        raise TraceError("a block trace needs at least one request")
    if np.any(sizes_arr <= 0):
        raise TraceError("request sizes must be positive")
    if np.any(offsets_arr < 0):
        raise TraceError("offsets must be non-negative")
    if page_size <= 0:
        raise TraceError("page size must be positive")
    if intra_request_gap_s < 0:
        raise TraceError("intra-request gap must be non-negative")


def from_requests_chunked(
    times: Sequence[float],
    offsets: Sequence[int],
    sizes: Sequence[int],
    page_size: int = PAGE_SIZE,
    intra_request_gap_s: float = 0.0003,
) -> ChunkedTrace:
    """Expand byte-range requests into page accesses, as a chunk stream.

    A request covering bytes ``[offset, offset + size)`` touches every
    page it overlaps; the pages are emitted sequentially, spaced by
    ``intra_request_gap_s`` (the per-page service spacing a streaming
    read exhibits), starting at the request's timestamp.  Each access's
    ``files`` entry is the index of its request.  Holds the O(requests)
    plan but never the full page expansion.
    """
    times_arr = np.asarray(times, dtype=float)
    offsets_arr = np.asarray(offsets, dtype=np.int64)
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    _validate_requests(
        times_arr, offsets_arr, sizes_arr, page_size, intra_request_gap_s
    )
    first_page = offsets_arr // page_size
    last_page = (offsets_arr + sizes_arr - 1) // page_size
    return expand_requests(
        times_arr,
        first_page,
        (last_page - first_page + 1).astype(np.int64),
        intra_request_gap_s,
        labels=np.arange(times_arr.size),
        writes=None,
        page_size=page_size,
        meta={
            "source": "block-trace",
            "requests": int(times_arr.size),
            "page_size": page_size,
        },
    )


def from_requests(
    times: Sequence[float],
    offsets: Sequence[int],
    sizes: Sequence[int],
    page_size: int = PAGE_SIZE,
    intra_request_gap_s: float = 0.0003,
) -> Trace:
    """:func:`from_requests_chunked` as one :class:`Trace`."""
    return from_requests_chunked(
        times, offsets, sizes, page_size, intra_request_gap_s
    ).materialize()


def _read_request_csv(
    path: PathLike,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a ``time,offset,size`` CSV into time-sorted request arrays."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"block trace not found: {path}")
    times: List[float] = []
    offsets: List[int] = []
    sizes: List[int] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise TraceError(f"empty block trace: {path}")
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise TraceError(
                    f"{path}:{line_number}: expected time,offset,size"
                )
            times.append(float(row[0]))
            offsets.append(int(row[1]))
            sizes.append(int(row[2]))
    if not times:
        raise TraceError(f"no requests in block trace: {path}")
    order = np.argsort(np.asarray(times), kind="stable")
    return (
        np.asarray(times)[order],
        np.asarray(offsets, dtype=np.int64)[order],
        np.asarray(sizes, dtype=np.int64)[order],
    )


def load_block_csv_chunked(
    path: PathLike,
    page_size: int = PAGE_SIZE,
    intra_request_gap_s: float = 0.0003,
) -> ChunkedTrace:
    """Read a ``time,offset,size`` CSV as a bounded-memory chunk stream.

    The requests are stably sorted by time, then expanded by
    :func:`from_requests_chunked`; memory holds the parsed columns, one
    chunk and the carryover of still-open requests.
    """
    return from_requests_chunked(
        *_read_request_csv(path),
        page_size=page_size,
        intra_request_gap_s=intra_request_gap_s,
    )


def load_block_csv(
    path: PathLike,
    page_size: int = PAGE_SIZE,
    intra_request_gap_s: float = 0.0003,
) -> Trace:
    """Read a ``time,offset,size`` CSV and expand it to page accesses."""
    return load_block_csv_chunked(
        path, page_size, intra_request_gap_s
    ).materialize()
