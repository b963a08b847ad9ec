"""Trace composition operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.compose import concatenate, interleave
from repro.traces.trace import Trace


def make_trace(times, pages, writes=None, page_size=4096):
    return Trace(
        times=np.asarray(times, float),
        pages=np.asarray(pages, dtype=np.int64),
        page_size=page_size,
        writes=None if writes is None else np.asarray(writes, bool),
    )


@pytest.fixture()
def first():
    return make_trace([0.0, 1.0, 2.0], [0, 1, 0])


@pytest.fixture()
def second():
    return make_trace([0.0, 0.5], [5, 6])


class TestConcatenate:
    def test_second_starts_after_first(self, first, second):
        combined = concatenate([first, second], gap_s=10.0)
        assert combined.num_accesses == 5
        assert combined.times[3] == pytest.approx(12.0)
        assert np.all(np.diff(combined.times) >= 0)

    def test_pages_unchanged(self, first, second):
        combined = concatenate([first, second])
        assert combined.pages.tolist() == [0, 1, 0, 5, 6]

    def test_writes_propagate(self, first):
        written = make_trace([0.0, 1.0], [9, 9], writes=[True, False])
        combined = concatenate([first, written])
        assert combined.writes.tolist() == [False] * 3 + [True, False]

    def test_all_reads_stay_unmarked(self, first, second):
        assert concatenate([first, second]).writes is None

    def test_validation(self, first):
        with pytest.raises(TraceError):
            concatenate([])
        with pytest.raises(TraceError):
            concatenate([first], gap_s=-1.0)
        other_size = make_trace([0.0], [1], page_size=8192)
        with pytest.raises(TraceError):
            concatenate([first, other_size])


class TestInterleave:
    def test_timeline_merged_in_order(self, first, second):
        merged = interleave([first, second])
        assert merged.num_accesses == 5
        assert np.all(np.diff(merged.times) >= 0)
        assert merged.times[0] == 0.0

    def test_tenant_footprints_disjoint(self, first, second):
        merged = interleave([first, second])
        tenant_a = {0, 1}
        tenant_b = {p for p in merged.pages.tolist() if p not in tenant_a}
        assert tenant_a & tenant_b == set()
        # Second tenant shifted past the first's max page (1) + 1.
        assert min(tenant_b) >= 2

    def test_shared_pages_mode(self, first, second):
        merged = interleave([first, second], shared_pages=True)
        assert set(merged.pages.tolist()) == {0, 1, 5, 6}

    def test_multi_tenant_cache_contention(self, fast_machine):
        """Two tenants interleaved need more cache than either alone --
        the composed workload exercises real contention."""
        from repro.sim.runner import run_method
        from repro.traces.specweb import generate_trace
        from repro.units import GB, MB

        def tenant(seed):
            return generate_trace(
                dataset_bytes=2 * GB,
                data_rate=20 * MB,
                duration_s=480.0,
                popularity=0.5,  # hot set ~1 GB per tenant
                page_size=fast_machine.page_bytes,
                file_scale=fast_machine.scale,
                seed=seed,
            )

        merged = interleave([tenant(1), tenant(2)])
        # A 1-GB cache holds one tenant's hot set but not both.
        solo = run_method("ONFM-1GB", tenant(1), fast_machine, 480.0)
        contended = run_method("ONFM-1GB", merged, fast_machine, 480.0)
        assert contended.miss_ratio > solo.miss_ratio

    def test_validation(self, first):
        with pytest.raises(TraceError):
            interleave([])
        empty = Trace(times=np.array([]), pages=np.array([], dtype=np.int64))
        with pytest.raises(TraceError):
            interleave([first, empty])

    @pytest.mark.parametrize(
        "first_pages, second_pages",
        [([0, 2**62], [2**62]), ([2**63 - 1], [0])],
        ids=["sum-wraps", "offset-past-int64"],
    )
    def test_page_offset_overflow_names_the_part(self, first_pages, second_pages):
        parts = [
            make_trace([0.0] * len(first_pages), first_pages),
            make_trace([1.0], second_pages),
        ]
        with pytest.raises(TraceError, match="part 1's pages overflow int64"):
            interleave(parts)
