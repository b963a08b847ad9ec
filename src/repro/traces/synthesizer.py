"""The paper's workload synthesizer (Section V-A).

Three transforms, each varying one characteristic while leaving the others
fixed:

* **data rate** -- "To increase the data rate, the synthesizer reduces the
  time interval between any two consecutive accesses."
* **data-set size** -- "The sizes of the data sets are enlarged by replacing
  one access in the traces by multiple accesses ... if the data set is
  enlarged by a factor of 4, the synthesizer doubles the number of files
  and the size of each file."
* **popularity** -- "we vary the accesses in the original traces by
  replacing the accesses to less popular pages with the accesses to more
  popular pages."

All transforms are pure: they return a new :class:`~repro.traces.trace.Trace`.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from repro.errors import TraceError
from repro.traces.chunked import ChunkedTrace, TraceChunk, chunk_trace
from repro.traces.trace import Trace


def scale_data_rate(trace: Trace, factor: float) -> Trace:
    """Multiply the byte rate by ``factor`` by compressing time.

    ``factor > 1`` shrinks inter-access intervals (higher rate);
    ``factor < 1`` stretches them.
    """
    return scale_data_rate_chunked(chunk_trace(trace), factor).materialize()


def scale_data_rate_chunked(source: ChunkedTrace, factor: float) -> ChunkedTrace:
    """:func:`scale_data_rate` of a chunked stream (elementwise per chunk)."""
    if factor <= 0:
        raise TraceError("rate factor must be positive")

    def factory(chunk_accesses: int) -> Iterator[TraceChunk]:
        for chunk in source.factory(chunk_accesses):
            yield TraceChunk(
                times=chunk.times / factor,
                pages=chunk.pages,
                files=chunk.files,
                writes=chunk.writes,
            )

    return ChunkedTrace(
        factory=factory,
        page_size=source.page_size,
        num_accesses=source.num_accesses,
        duration_s=(
            None if source.duration_s is None else source.duration_s / factor
        ),
        has_writes=source.has_writes,
        meta={**source.meta, "rate_scaled_by": factor},
    )


def scale_dataset(trace: Trace, factor: float, seed: Optional[int] = None) -> Trace:
    """Enlarge (or shrink) the data set by ``factor``.

    Following the paper, a factor of ``k`` multiplies both the number of
    distinct "files" (here: page-footprint replicas) and the footprint of
    each by ``sqrt(k)``.  Concretely each access to page ``p`` is rewritten
    to one of ``sqrt(k)`` replica regions (chosen pseudo-randomly but
    deterministically per original page, preserving reuse), and within the
    region the page run is stretched by ``sqrt(k)`` so that each replica's
    footprint grows accordingly.  Replacing one access by multiple accesses
    keeps the access *count* proportional to the byte rate, so the trace's
    data rate is preserved by also replicating accesses ``sqrt(k)`` times at
    the connection spacing.

    Mechanics for an integer ``width = sqrt(factor)``: page ``p`` gains
    ``width``-page stretched images in each of ``width`` replica regions
    (footprint x ``width^2``); the ``k``-th visit to ``p`` is rewritten to
    its image in replica ``k mod width``, expanded to the ``width``
    stretched pages (accesses x ``width``).  Each new page is therefore
    visited ``width`` times less often -- exactly the sparser reuse a
    ``factor``-times-larger data set sees at an unchanged request mix.

    In practice the experiments regenerate traces at the desired size
    instead (the generator supports every size directly); this transform
    exists for users who only have a measured trace.
    """
    del seed  # the transform is deterministic
    if factor <= 0:
        raise TraceError("data-set factor must be positive")
    if trace.num_accesses == 0:
        raise TraceError("cannot scale an empty trace")
    width = max(int(round(math.sqrt(factor))), 1)

    n_pages = int(trace.pages.max()) + 1
    # k-th visit to a page goes to replica k mod width.
    visit_index = np.zeros(trace.num_accesses, dtype=np.int64)
    counts = np.zeros(n_pages, dtype=np.int64)
    pages = trace.pages
    for i in range(trace.num_accesses):
        page = pages[i]
        visit_index[i] = counts[page]
        counts[page] += 1
    replica = visit_index % width

    base = replica * (n_pages * width) + pages * width
    expanded_pages = (base[:, None] + np.arange(width)[None, :]).reshape(-1)
    # Stretched-page accesses follow at connection spacing (~0.3 ms),
    # independent of granularity, matching the generator's burst shape.
    spacing = 4096 / (12.5 * 1024 * 1024)
    expanded_times = (
        trace.times[:, None] + np.arange(width)[None, :] * spacing
    ).reshape(-1)
    files = None
    if trace.files is not None:
        files = np.repeat(trace.files, width)

    order = np.argsort(expanded_times, kind="stable")
    return Trace(
        times=expanded_times[order],
        pages=expanded_pages[order],
        page_size=trace.page_size,
        files=None if files is None else files[order],
        meta={**trace.meta, "dataset_scaled_by": width * width},
    )


def densify_popularity(
    trace: Trace, target_ratio: float, seed: Optional[int] = None
) -> Trace:
    """Make popularity denser: remap cold-page accesses onto hot pages.

    Repeats the paper's procedure: accesses to the least popular pages are
    replaced by accesses to the most popular pages until the measured
    popularity ratio (hot-90 % footprint over total footprint) drops to
    ``target_ratio``.  The total footprint is preserved by leaving at least
    one access on every page.
    """
    if not 0.0 < target_ratio <= 1.0:
        raise TraceError("target popularity ratio must be in (0, 1]")
    if trace.num_accesses == 0:
        raise TraceError("cannot densify an empty trace")

    current = trace.measured_popularity()
    if target_ratio >= current:
        return trace.with_meta(popularity_densified_to=current)

    rng = np.random.default_rng(seed)
    unique, counts = np.unique(trace.pages, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    hot_first = unique[order]

    # Choose how many hot pages should absorb 90 % of accesses.
    n_hot = max(int(round(target_ratio * unique.size)), 1)
    hot_pages = hot_first[:n_hot]
    hot_set = np.zeros(int(trace.pages.max()) + 1, dtype=bool)
    hot_set[hot_pages] = True

    total = trace.num_accesses
    target_hot_accesses = int(math.ceil(0.90 * total))
    is_hot = hot_set[trace.pages]
    current_hot = int(is_hot.sum())
    deficit = target_hot_accesses - current_hot

    pages = trace.pages.copy()
    if deficit > 0:
        cold_indices = np.flatnonzero(~is_hot)
        # Keep the first access to each cold page so the footprint (and
        # therefore the data-set size) is unchanged.
        first_seen = np.zeros(int(trace.pages.max()) + 1, dtype=bool)
        keep = np.zeros(cold_indices.size, dtype=bool)
        for j, idx in enumerate(cold_indices):
            page = pages[idx]
            if not first_seen[page]:
                first_seen[page] = True
                keep[j] = True
        replaceable = cold_indices[~keep]
        n_replace = min(deficit, replaceable.size)
        chosen = rng.choice(replaceable, size=n_replace, replace=False)
        # Weight replacement targets by existing hot-page popularity.
        hot_counts = counts[order][:n_hot].astype(float)
        weights = hot_counts / hot_counts.sum()
        pages[chosen] = rng.choice(hot_pages, size=n_replace, p=weights)

    return Trace(
        times=trace.times,
        pages=pages,
        page_size=trace.page_size,
        files=trace.files,
        meta={**trace.meta, "popularity_densified_to": target_ratio},
    )
