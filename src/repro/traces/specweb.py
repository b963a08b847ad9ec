"""SPECWeb99-class trace generator (paper Fig. 6, "benchmark" stage).

Requests arrive as a Poisson process; each request selects a file by a
bounded Zipf popularity distribution and reads the whole file as a run of
sequential page accesses.  Intra-file page accesses are spaced by the
server's per-connection service rate, so a large file occupies the stream
for a proportionally longer window -- this is what makes long files break
disk idleness differently from short ones.

The request rate is calibrated so the generated trace hits a target *byte*
rate, the quantity the paper sweeps (5-200 MB/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import TraceError
from repro.traces.chunked import ChunkedTrace, expand_requests
from repro.traces.fileset import FileSet, specweb_fileset
from repro.traces.trace import Trace
from repro.traces.zipf import ZipfSampler, calibrate_exponent
from repro.units import MB, PAGE_SIZE


@dataclass(frozen=True)
class SpecWebGenerator:
    """Generator configuration.

    ``popularity`` is the paper's popularity ratio (hot-90 % footprint over
    data-set size): 0.1 means 10 % of the data receives 90 % of accesses.
    """

    fileset: FileSet
    data_rate: float  # target bytes/second
    popularity: float = 0.10
    #: Per-connection service bandwidth: spacing of page accesses within
    #: one file read.  100 Mb/s client links give about 12.5 MB/s.
    connection_rate: float = 12.5 * MB
    #: Fraction of *requests* that are uploads (their pages are writes).
    #: Web-serving workloads are read-dominated; SPECWeb99 models ~5%
    #: POSTs.
    write_fraction: float = 0.0
    #: Request arrival process: "poisson" (smooth) or "selfsimilar"
    #: (b-model cascade -- the bursty, heavy-tailed traffic of measured
    #: storage traces [20], [21]).
    arrival_process: str = "poisson"
    #: Burstiness of the self-similar process (b-model bias, [0.5, 1)).
    burst_bias: float = 0.75
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.data_rate <= 0:
            raise TraceError("data rate must be positive")
        if not 0.0 < self.popularity <= 1.0:
            raise TraceError("popularity ratio must be in (0, 1]")
        if self.connection_rate <= 0:
            raise TraceError("connection rate must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise TraceError("write fraction must be in [0, 1]")
        if self.arrival_process not in ("poisson", "selfsimilar"):
            raise TraceError(
                f"unknown arrival process {self.arrival_process!r}"
            )

    def _plan(self, duration_s: float):
        """The request-level plan: every RNG draw, before any expansion.

        Returns ``(arrivals, file_ids, request_is_write, exponent)``:
        arrivals first, then file choices, then write flags, all at
        request granularity (O(requests) memory).
        """
        if duration_s <= 0:
            raise TraceError("duration must be positive")
        rng = np.random.default_rng(self.seed)
        fs = self.fileset

        exponent = calibrate_exponent(fs.sizes_bytes, self.popularity)
        sampler = ZipfSampler(fs.num_files, exponent)

        # Expected bytes per request under this popularity distribution.
        # Requests move whole pages, so the byte cost of a request is its
        # file's page footprint -- calibrating with raw file sizes would
        # overshoot the target rate whenever files round up to pages.
        mean_request_bytes = float(
            (sampler.probabilities * fs.num_pages).sum()
        ) * fs.page_size
        request_rate = self.data_rate / mean_request_bytes

        # Request arrivals over the duration.
        from repro.traces.arrivals import bmodel_arrivals, poisson_arrivals

        if self.arrival_process == "selfsimilar":
            arrivals = bmodel_arrivals(
                request_rate, duration_s, bias=self.burst_bias, rng=rng
            )
        else:
            arrivals = poisson_arrivals(request_rate, duration_s, rng=rng)
        if arrivals.size == 0:
            raise TraceError(
                "no requests generated; duration too short for the data rate"
            )
        file_ids = sampler.sample(arrivals.size, rng)
        request_is_write = None
        if self.write_fraction > 0.0:
            request_is_write = rng.random(arrivals.size) < self.write_fraction
        return arrivals, file_ids, request_is_write, exponent

    def _meta(self, duration_s: float, exponent: float) -> dict:
        fs = self.fileset
        return {
            "generator": "specweb",
            "data_rate": self.data_rate,
            "popularity": self.popularity,
            "zipf_exponent": exponent,
            "dataset_bytes": fs.total_bytes,
            "num_files": fs.num_files,
            "duration_s": duration_s,
            "write_fraction": self.write_fraction,
            "arrival_process": self.arrival_process,
            "seed": self.seed,
        }

    def generate(self, duration_s: float) -> Trace:
        """Generate a trace covering ``[0, duration_s)``."""
        return self.generate_chunked(duration_s).materialize()

    def generate_chunked(self, duration_s: float) -> ChunkedTrace:
        """The trace of :meth:`generate` as a bounded-memory chunk stream.

        Each request reads its file's pages sequentially, spaced by the
        per-connection service rate; interleaved connections make the
        merged stream non-monotonic, and the disk cache sees the accesses
        in arrival order (:func:`~repro.traces.chunked.expand_requests`).
        Only the O(requests) plan is drawn up front.
        """
        arrivals, file_ids, request_is_write, exponent = self._plan(duration_s)
        fs = self.fileset
        return expand_requests(
            arrivals,
            fs.first_page[file_ids],
            fs.num_pages[file_ids],
            fs.page_size / self.connection_rate,
            labels=file_ids,
            writes=request_is_write,
            page_size=fs.page_size,
            meta=self._meta(duration_s, exponent),
        )


def specweb_generator(
    dataset_bytes: float,
    data_rate: float,
    popularity: float = 0.10,
    page_size: int = PAGE_SIZE,
    seed: Optional[int] = None,
    file_scale: float = 1.0,
    **options,
) -> SpecWebGenerator:
    """A SPECWeb99-class file set and its generator, from the paper's knobs.

    ``seed`` draws the file set and ``seed + 1`` the requests.  For a
    granularity-scaled machine pass ``file_scale=machine.scale`` so file
    sizes keep the paper's ratio to the page size.  ``options`` are
    further :class:`SpecWebGenerator` fields (``write_fraction``,
    ``arrival_process``, ``burst_bias``).
    """
    rng = np.random.default_rng(seed)
    fileset = specweb_fileset(
        dataset_bytes, page_size=page_size, rng=rng, file_scale=file_scale
    )
    return SpecWebGenerator(
        fileset=fileset,
        data_rate=data_rate,
        popularity=popularity,
        # Keep the intra-file page spacing at the paper's time scale: the
        # per-connection rate grows with the granularity factor so a file
        # read occupies the same wall-clock window at every scale.
        connection_rate=12.5 * MB * file_scale,
        seed=None if seed is None else seed + 1,
        **options,
    )


def generate_trace_chunked(
    dataset_bytes: float,
    data_rate: float,
    duration_s: float,
    popularity: float = 0.10,
    page_size: int = PAGE_SIZE,
    seed: Optional[int] = None,
    file_scale: float = 1.0,
    write_fraction: float = 0.0,
) -> ChunkedTrace:
    """One-call helper: build a file set and generate a chunked trace.

    Parameters mirror the paper's three workload characteristics plus
    duration (see :func:`specweb_generator`).  This is the entry point
    for full-resolution (``--scale 1``) runs whose expanded arrays would
    not fit comfortably in memory.
    """
    generator = specweb_generator(
        dataset_bytes,
        data_rate,
        popularity,
        page_size,
        seed,
        file_scale,
        write_fraction=write_fraction,
    )
    return generator.generate_chunked(duration_s)


def generate_trace(
    dataset_bytes: float,
    data_rate: float,
    duration_s: float,
    popularity: float = 0.10,
    page_size: int = PAGE_SIZE,
    seed: Optional[int] = None,
    file_scale: float = 1.0,
    write_fraction: float = 0.0,
) -> Trace:
    """:func:`generate_trace_chunked` as one :class:`Trace`.

    This is the entry point the experiments use.
    """
    return generate_trace_chunked(
        dataset_bytes,
        data_rate,
        duration_s,
        popularity,
        page_size,
        seed,
        file_scale,
        write_fraction,
    ).materialize()
