"""Chunked traces: every trace source, delivered as bounded batches.

A full-resolution (``--scale 1``) workload easily reaches 10^7 accesses;
materializing the expanded per-access arrays costs hundreds of MB before
a single access is replayed.  Every generator, loader and transform in
:mod:`repro.traces` is therefore written once, as a :class:`ChunkedTrace`
whose factory yields the stream as :class:`TraceChunk` batches of at
most ``chunk_accesses`` accesses.  The consumer picks the chunk size:
:meth:`ChunkedTrace.chunks` (and :func:`repro.sim.runner.run_chunked`,
which drives the chunks through
:class:`~repro.service.streaming.StreamingManager`) takes it, and
:meth:`ChunkedTrace.materialize` asks for a single chunk and wraps it in
a :class:`~repro.traces.trace.Trace`.  The ``Trace``-returning builders
(``generate_trace``, ``from_requests``, ``load_csv``, ``modulate_rate``,
``suites.build``, ...) are that one call.

Contract (``tests/traces/test_chunked.py``): a source's output does not
depend on the chunk size -- concatenating its chunks yields the same
arrays, bit for bit, whatever size was asked for.  The request-based
sources (the SPECWeb generator and the block-trace importer) get this
from :func:`expand_requests`, the one place requests become page
accesses.  :meth:`ChunkedTrace.chunks` is also the input boundary of the
chunked pipeline: every chunk is checked like a ``Trace`` is, and
chunks must follow each other in time.  Transforms read their source
through its ``factory``, so a stream is checked once, by the consumer's
``chunks()`` call or, for :meth:`ChunkedTrace.materialize`, by ``Trace``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from repro.errors import TraceError
from repro.traces.trace import Trace, validate_accesses
from repro.units import PAGE_SIZE

#: Default accesses per chunk: ~16 MB of (times + pages) per chunk.
DEFAULT_CHUNK_ACCESSES = 1 << 20


@dataclass(frozen=True)
class TraceChunk:
    """One bounded batch of a trace's access stream."""

    times: np.ndarray
    pages: np.ndarray
    files: Optional[np.ndarray] = None
    writes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def num_accesses(self) -> int:
        return len(self)


@dataclass(frozen=True)
class ChunkedTrace:
    """A trace delivered as bounded chunks instead of full arrays.

    ``factory(chunk_accesses)`` builds a fresh iterator over chunks of at
    most ``chunk_accesses`` accesses each call, so a chunked trace can be
    replayed (or materialized) repeatedly.  ``num_accesses`` and
    ``duration_s`` are the *final* stream totals, known up front by the
    generators (``None`` for sources that cannot know without a pass,
    e.g. streaming CSV).
    """

    factory: Callable[[int], Iterator[TraceChunk]]
    page_size: int = PAGE_SIZE
    num_accesses: Optional[int] = None
    duration_s: Optional[float] = None
    has_writes: bool = False
    meta: Dict[str, object] = field(default_factory=dict)

    def chunks(
        self, chunk_accesses: int = DEFAULT_CHUNK_ACCESSES
    ) -> Iterator[TraceChunk]:
        """A fresh iterator over the stream, ``chunk_accesses`` at a time.

        Raises :class:`TraceError` on the first chunk that is not a
        well-formed access batch (see
        :func:`~repro.traces.trace.validate_accesses`) or that starts
        before the previous chunk ended.
        """
        if chunk_accesses <= 0:
            raise TraceError("chunk size must be positive")
        last = 0.0
        for chunk in self.factory(chunk_accesses):
            validate_accesses(chunk.times, chunk.pages, chunk.writes, TraceError)
            if chunk.times.size:
                if chunk.times[0] < last:
                    raise TraceError(
                        "access times must be non-decreasing across chunks"
                    )
                last = chunk.times[-1]
            yield chunk

    def materialize(self) -> Trace:
        """The whole stream as one :class:`Trace`.

        Asks the source for a single chunk, whose arrays become the
        trace's without a copy.  ``Trace`` runs the same checks
        :meth:`chunks` runs, over the whole stream.
        """
        parts = list(self.factory(sys.maxsize))
        if not parts:
            raise TraceError("chunked trace produced no chunks")
        whole = parts[0]
        if len(parts) > 1:
            whole = TraceChunk(
                *(
                    None
                    if any(getattr(p, name) is None for p in parts)
                    else np.concatenate([getattr(p, name) for p in parts])
                    for name in ("times", "pages", "files", "writes")
                )
            )
        return Trace(
            times=whole.times,
            pages=whole.pages,
            page_size=self.page_size,
            files=whole.files,
            writes=whole.writes,
            meta=dict(self.meta),
        )

    def with_meta(self, **entries: object) -> "ChunkedTrace":
        """Copy with extra provenance entries."""
        meta = dict(self.meta)
        meta.update(entries)
        return ChunkedTrace(
            factory=self.factory,
            page_size=self.page_size,
            num_accesses=self.num_accesses,
            duration_s=self.duration_s,
            has_writes=self.has_writes,
            meta=meta,
        )


def chunk_trace(trace: Trace) -> ChunkedTrace:
    """View an already-materialized trace as chunks (no copies)."""
    n = trace.num_accesses

    def factory(chunk_accesses: int) -> Iterator[TraceChunk]:
        for lo in range(0, max(n, 1), chunk_accesses):
            hi = min(lo + chunk_accesses, n)
            yield TraceChunk(
                times=trace.times[lo:hi],
                pages=trace.pages[lo:hi],
                files=None if trace.files is None else trace.files[lo:hi],
                writes=None if trace.writes is None else trace.writes[lo:hi],
            )

    return ChunkedTrace(
        factory=factory,
        page_size=trace.page_size,
        num_accesses=n,
        duration_s=trace.duration_s,
        has_writes=trace.writes is not None and bool(trace.writes.any()),
        meta=dict(trace.meta),
    )


def expand_requests(
    arrivals: np.ndarray,
    first_page: np.ndarray,
    pages_per_request: np.ndarray,
    gap_s: float,
    labels: np.ndarray,
    writes: Optional[np.ndarray],
    page_size: int,
    meta: Dict[str, object],
) -> ChunkedTrace:
    """Requests expanded into page accesses, in stable time order.

    Request ``i`` arrives at ``arrivals[i]`` and reads pages
    ``first_page[i] .. first_page[i] + pages_per_request[i] - 1``, one
    every ``gap_s`` seconds.  Its accesses carry ``labels[i]`` as their
    file and ``writes[i]`` (if given) as their write flag.  The stream is
    every access of every request, in the order
    ``argsort(times, kind="stable")`` gives the accesses listed request
    by request -- the order holds for any chunk size and any request
    order.

    Requests expand in blocks of about one chunk.  Expanded accesses wait
    in a carryover, stably sorted by time, until the earliest arrival
    among the requests not yet expanded proves that nothing can still
    sort before them: every later access lands at or past that arrival,
    and on a tie it loses the stable sort, having been expanded later.
    Only the carryover, one block and the O(requests) plan (arrivals,
    first pages, labels, write flags and cumulative page counts) are
    held.
    """
    cum = np.concatenate(([0], np.cumsum(pages_per_request)))
    total = int(cum[-1])
    n_req = int(arrivals.size)
    # earliest[i]: the first moment any access of requests i.. can land.
    earliest = np.minimum.accumulate(arrivals[::-1])[::-1]
    tags = [labels] + ([] if writes is None else [writes])

    def factory(chunk_accesses: int) -> Iterator[TraceChunk]:
        # Clamped so cum[req] + chunk cannot overflow int64.
        chunk = min(chunk_accesses, max(total, 1))
        pending = []  # [times, pages, labels(, writes)], time-sorted
        ready = 0  # leading pending accesses that are final
        req = 0
        while req < n_req:
            # Enough to fill the chunk, plus as many again as the
            # carryover holds: about that many will still be open after.
            held = pending[0].size if pending else 0
            want = chunk + held - 2 * ready
            end = int(np.searchsorted(cum, cum[req] + want, side="right")) - 1
            end = min(max(end, req + 1), n_req)
            local = np.repeat(np.arange(end - req), np.diff(cum[req : end + 1]))
            offsets = np.arange(local.size) - (cum[req:end] - cum[req])[local]
            block = [
                arrivals[req:end][local] + offsets * gap_s,
                first_page[req:end][local] + offsets,
            ] + [column[req:end][local] for column in tags]
            if pending:
                block = [np.concatenate(pair) for pair in zip(pending, block)]
            order = np.argsort(block[0], kind="stable")
            pending = [column[order] for column in block]
            req = end
            final = pending[0].size
            if req < n_req:
                final = int(
                    np.searchsorted(pending[0], earliest[req], side="right")
                )
            emit = final if req == n_req else final - final % chunk
            for lo in range(0, emit, chunk):
                hi = min(lo + chunk, emit)
                yield TraceChunk(*(column[lo:hi] for column in pending))
            pending = [column[emit:] for column in pending]
            ready = final - emit

    return ChunkedTrace(
        factory=factory,
        page_size=page_size,
        num_accesses=total,
        # A request's last access is its latest (same float ops as the
        # expansion, so this equals the stream's final timestamp).
        duration_s=float(
            (arrivals + (pages_per_request - 1) * gap_s).max()
        ),
        has_writes=writes is not None and bool(writes.any()),
        meta=meta,
    )
