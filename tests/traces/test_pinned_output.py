"""Pinned trace outputs: every source keeps its exact stream.

The digests in ``pinned_digests.json`` were recorded at commit 3274226,
where each generator and loader still had its own materialized
expansion next to its chunked twin.  The chunk-size tests in
``test_chunked.py`` compare the chunk stream with itself; these compare
it with that older, independent implementation, so a change of access
order, dtype or provenance shows up here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.traces.block_trace import from_requests
from repro.traces.suites import build, suite_names

PINNED = json.loads(
    (Path(__file__).with_name("pinned_digests.json")).read_text()
)


def _digest(array):
    if array is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _record(trace):
    columns = (trace.times, trace.pages, trace.files, trace.writes)
    return {
        "n": int(trace.num_accesses),
        "times": _digest(trace.times),
        "pages": _digest(trace.pages),
        "files": _digest(trace.files),
        "writes": _digest(trace.writes),
        "dtypes": [None if c is None else str(c.dtype) for c in columns],
        "meta": hashlib.sha256(
            json.dumps(trace.meta, sort_keys=True, default=repr).encode()
        ).hexdigest(),
    }


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("suite", suite_names())
def test_suite_output_pinned(machine, suite, seed):
    assert _record(build(suite, machine, 600.0, seed=seed)) == PINNED[
        f"{suite}/{seed}"
    ]


def test_unsorted_requests_with_exact_ties_pinned():
    # Request 1 reads pages at 0.5, 0.75 and 1.0: its last page ties
    # request 2's arrival and its first ties request 3's, and request 0
    # arrives last although it is listed first.
    trace = from_requests(
        [2.0, 0.5, 1.0, 0.5, 0.0],
        [0, 40960, 8192, 4096, 81920],
        [4096, 12288, 4096, 8192, 1],
        page_size=4096,
        intra_request_gap_s=0.25,
    )
    assert _record(trace) == PINNED["from_requests/tie"]


def test_unsorted_random_requests_pinned():
    rng = np.random.default_rng(17)
    times = np.round(rng.uniform(0, 2, 300), 2)
    trace = from_requests(
        times,
        rng.integers(0, 64, 300) * 4096,
        rng.integers(1, 5 * 4096, 300),
        page_size=4096,
    )
    assert _record(trace) == PINNED["from_requests/unsorted"]
