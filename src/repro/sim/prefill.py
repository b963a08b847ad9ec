"""Warm-start computation: which pages a long-running server would hold.

The paper's traces come from a web server that has been up for a while,
so its disk cache is warm.  A fresh simulation would instead spend
``data set / 10.4 MB/s`` seconds (scale-invariant!) faulting everything
in, drowning the measurement window in cold misses.  ``warm_start_pages``
returns the trace's *reused* pages (two or more accesses) ordered so the
hottest end up most recently used; pages touched only once stay out, so
the simulated server keeps exactly the unavoidable first-access misses
the paper describes ("these disk accesses cannot be avoided by changing
the memory size").
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.traces.trace import Trace


def warm_start_pages(trace: Trace, min_accesses: int = 2) -> List[int]:
    """Pages to prefill, coldest first (insert in order; last = MRU).

    Computed once per immutable trace (:meth:`Trace.derived`); every
    caller gets its own list.
    """
    return list(
        trace.derived(
            f"warm_start_pages/{min_accesses}",
            lambda t: _warm_start_pages(t, min_accesses),
        )
    )


def _warm_start_pages(trace: Trace, min_accesses: int) -> List[int]:
    if trace.num_accesses == 0:
        return []
    pages, counts = np.unique(trace.pages, return_counts=True)
    reused = counts >= min_accesses
    pages, counts = pages[reused], counts[reused]
    if pages.size == 0:
        return []
    # Last-access position breaks count ties: more recently used later.
    last_position = np.zeros(int(trace.pages.max()) + 1, dtype=np.int64)
    last_position[trace.pages] = np.arange(trace.num_accesses)
    order = np.lexsort((last_position[pages], counts))
    return pages[order].tolist()
