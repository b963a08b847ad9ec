"""Trace container and derived statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.trace import Trace


def make_trace(times, pages, **kwargs):
    return Trace(
        times=np.asarray(times, dtype=float),
        pages=np.asarray(pages, dtype=np.int64),
        **kwargs,
    )


class TestBasics:
    def test_shape_properties(self):
        trace = make_trace([0.0, 1.0, 2.0], [5, 6, 5], page_size=4096)
        assert len(trace) == 3
        assert trace.duration_s == 2.0
        assert trace.bytes_accessed == 3 * 4096
        assert trace.data_rate == pytest.approx(3 * 4096 / 2.0)
        assert trace.unique_pages == 2
        assert trace.footprint_bytes == 2 * 4096

    def test_empty_trace(self):
        trace = make_trace([], [])
        assert len(trace) == 0
        assert trace.duration_s == 0.0
        assert trace.data_rate == 0.0
        assert trace.unique_pages == 0

    def test_validation(self):
        with pytest.raises(TraceError):
            make_trace([1.0, 0.5], [1, 2])  # unsorted
        with pytest.raises(TraceError):
            make_trace([0.0], [-1])  # negative page
        with pytest.raises(TraceError):
            make_trace([0.0], [1], page_size=0)
        with pytest.raises(TraceError):
            make_trace([0.0, 1.0], [1, 2], files=np.array([1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamps_rejected(self, bad):
        with pytest.raises(TraceError, match="finite"):
            make_trace([0.0, bad, 2.0], [0, 1, 2])

    def test_negative_timestamps_rejected(self):
        with pytest.raises(TraceError, match="non-negative"):
            make_trace([-5.0, 1.0], [0, 1])
        make_trace([0.0, 1.0], [0, 1])  # time zero itself is fine

    def test_files_alignment(self):
        trace = make_trace([0.0, 1.0], [1, 2], files=np.array([0, 0]))
        assert trace.files is not None
        assert trace.files.tolist() == [0, 0]


class TestSlicing:
    def test_slice_time_window(self):
        trace = make_trace([0.0, 1.0, 2.0, 3.0], [1, 2, 3, 4])
        window = trace.slice_time(1.0, 3.0)
        assert window.times.tolist() == [1.0, 2.0]
        assert window.pages.tolist() == [2, 3]

    def test_slice_preserves_files(self):
        trace = make_trace([0.0, 1.0], [1, 2], files=np.array([7, 8]))
        window = trace.slice_time(0.5, 2.0)
        assert window.files.tolist() == [8]

    def test_slice_rejects_inverted(self):
        trace = make_trace([0.0], [1])
        with pytest.raises(TraceError):
            trace.slice_time(2.0, 1.0)


class TestPopularity:
    def test_single_hot_page(self):
        # One page receives 95% of accesses: popularity ~ 1/unique pages.
        pages = [0] * 95 + list(range(1, 6))
        trace = make_trace(np.arange(100.0), pages)
        assert trace.measured_popularity() == pytest.approx(1 / 6, abs=0.01)

    def test_uniform_accesses(self):
        pages = list(range(10)) * 10
        trace = make_trace(np.arange(100.0), sorted(pages))
        assert trace.measured_popularity() == pytest.approx(0.9, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            make_trace([], []).measured_popularity()


class TestMeta:
    def test_with_meta_merges(self):
        trace = make_trace([0.0], [1], meta={"a": 1})
        updated = trace.with_meta(b=2)
        assert updated.meta == {"a": 1, "b": 2}
        assert trace.meta == {"a": 1}


class TestFreeze:
    def test_freeze_makes_arrays_and_bases_read_only(self):
        base = np.arange(6, dtype=np.int64)
        trace = make_trace(
            [0.0, 1.0, 2.0], base[:3], writes=[True, False, True],
            files=[0, 0, 1],
        )
        assert not trace.immutable
        assert trace.freeze() is trace
        assert trace.immutable
        assert not base.flags.writeable
        for array in (trace.times, trace.pages, trace.writes, trace.files):
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_read_only_owner_and_bytes_buffer_are_immutable(self):
        times = np.arange(3, dtype=float)
        times.setflags(write=False)
        pages = np.frombuffer(np.arange(3, dtype=np.int64).tobytes(), dtype=np.int64)
        assert Trace(times=times, pages=pages).immutable

    def test_derived_kept_only_while_immutable(self):
        calls = []

        def count(trace):
            calls.append(trace)
            return int(trace.pages.sum())

        trace = make_trace([0.0, 1.0], [1, 2])
        assert trace.derived("sum", count) == trace.derived("sum", count) == 3
        assert len(calls) == 2
        trace.freeze()
        assert trace.derived("sum", count) == trace.derived("sum", count) == 3
        assert len(calls) == 3
        # A copy (new meta) is a new trace with its own values.
        assert trace.with_meta(x=1).derived("sum", count) == 3
        assert len(calls) == 4
