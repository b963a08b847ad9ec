"""Streaming-vs-offline parity: every field bit-identical, any batching.

The matrix crosses methods (joint, joint-no-constraints, fixed timeout),
cold vs warm start, and batch shapes (one shot, per-access with empty
batches, ragged boundaries straddling period edges).  Hypothesis then
fuzzes arbitrary batch splits against the same offline runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.service.streaming import StreamingManager
from repro.sim.prefill import warm_start_pages
from repro.sim.runner import run_method
from repro.verify.differential import deep_diff

METHODS = ["JOINT", "JOINT-NC", "2TNAP"]


def assert_bit_identical(offline, result):
    assert result.replay_mode == f"stream-{offline.replay_mode}"
    for field in dataclasses.fields(result):
        if field.name == "replay_mode":
            continue
        diff = deep_diff(
            getattr(result, field.name),
            getattr(offline, field.name),
            field.name,
        )
        assert diff is None, diff


def stream_in_batches(
    method, machine, trace, duration_s, bounds, prefill=None, writes=False
):
    stream = StreamingManager(
        method, machine, prefill=prefill, expect_writes=writes
    )
    for lo, hi in zip(bounds, bounds[1:]):
        stream.feed(
            trace.times[lo:hi],
            trace.pages[lo:hi],
            None if trace.writes is None else trace.writes[lo:hi],
        )
    return stream.close(duration_s)


@pytest.fixture(scope="module")
def duration(fast_machine):
    return 3 * fast_machine.manager.period_s


@pytest.fixture(scope="module")
def offline_results(fast_machine, service_trace, duration):
    """One offline run per (method, warm) cell, shared by every batching."""
    results = {}
    for method in METHODS:
        for warm in (False, True):
            results[method, warm] = run_method(
                method,
                service_trace,
                fast_machine,
                duration_s=duration,
                warm_start=warm,
            )
    return results


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("batching", ["whole", "ragged", "straddle"])
def test_parity_matrix(
    method, warm, batching, fast_machine, service_trace, duration,
    offline_results,
):
    n = service_trace.num_accesses
    period = fast_machine.manager.period_s
    if batching == "whole":
        bounds = [0, n]
    elif batching == "ragged":
        rng = np.random.default_rng(hash((method, warm)) & 0xFFFF)
        cuts = np.sort(rng.integers(0, n + 1, size=9)).tolist()
        bounds = [0] + cuts + [n]
    else:
        # Batches that straddle every period boundary by a few accesses:
        # the fire rule must hold decisions back until the witness access
        # past the boundary arrives.
        bounds = [0]
        for k in (1, 2):
            edge = int(np.searchsorted(service_trace.times, k * period))
            bounds += [max(edge - 3, 0), min(edge + 3, n)]
        bounds.append(n)
    prefill = warm_start_pages(service_trace) if warm else None
    result = stream_in_batches(
        method, fast_machine, service_trace, duration, bounds, prefill=prefill
    )
    assert_bit_identical(offline_results[method, warm], result)


def test_per_access_with_empty_batches(
    fast_machine, service_trace, duration, offline_results
):
    """One access per feed, an empty batch between every pair."""
    stream = StreamingManager("JOINT", fast_machine)
    n = service_trace.num_accesses
    step = max(n // 200, 1)  # 200 single-access probes across the trace
    bounds = list(range(0, n, step)) + [n]
    for lo, hi in zip(bounds, bounds[1:]):
        stream.feed(service_trace.times[lo:hi], service_trace.pages[lo:hi])
        assert stream.feed([], []) == []
    assert_bit_identical(
        offline_results["JOINT", False], stream.close(duration)
    )


def test_write_traces_stream_scalar(fast_machine, write_trace, duration):
    offline = run_method(
        "JOINT", write_trace, fast_machine, duration_s=duration,
        warm_start=False,
    )
    assert offline.replay_mode == "scalar"
    n = write_trace.num_accesses
    bounds = [0, n // 3, 2 * n // 3, n]
    result = stream_in_batches(
        "JOINT", fast_machine, write_trace, duration, bounds, writes=True
    )
    assert_bit_identical(offline, result)


@pytest.mark.parametrize("batching", ["single", "two-boundaries", "on-boundary"])
def test_write_stream_scalar_feeds_span_boundaries(
    fast_machine, write_trace, duration, batching
):
    """The scalar stream records one span per epoch, whatever the feed:
    single accesses, one batch across two boundaries, or a lone access
    exactly on a boundary (it belongs to the next epoch)."""
    period = fast_machine.manager.period_s
    trace = write_trace
    n = trace.num_accesses
    first, second = np.searchsorted(trace.times, [period, 2 * period]).tolist()
    if batching == "single":
        bounds = list(range(n + 1))
    elif batching == "two-boundaries":
        bounds = [0, first - 5, second + 5, n]
    else:
        times = trace.times.copy()
        times[first] = period
        trace = dataclasses.replace(trace, times=times)
        bounds = [0, first, first + 1, n]
    offline = run_method(
        "JOINT", trace, fast_machine, duration_s=duration, warm_start=False
    )
    assert offline.replay_mode == "scalar"
    result = stream_in_batches(
        "JOINT", fast_machine, trace, duration, bounds, writes=True
    )
    assert_bit_identical(offline, result)


def test_warmup_window(fast_machine, service_trace, duration):
    period = fast_machine.manager.period_s
    offline = run_method(
        "JOINT", service_trace, fast_machine, duration_s=duration,
        warmup_s=period, warm_start=False,
    )
    stream = StreamingManager("JOINT", fast_machine, warmup_s=period)
    n = service_trace.num_accesses
    stream.feed(service_trace.times[: n // 2], service_trace.pages[: n // 2])
    stream.feed(service_trace.times[n // 2 :], service_trace.pages[n // 2 :])
    assert_bit_identical(offline, stream.close(duration))


def test_advance_interleaved(fast_machine, service_trace, duration,
                             offline_results):
    """Idle watermark advances between batches change nothing."""
    stream = StreamingManager("JOINT", fast_machine)
    n = service_trace.num_accesses
    bounds = [0, n // 4, n // 2, 3 * n // 4, n]
    for lo, hi in zip(bounds, bounds[1:]):
        stream.feed(service_trace.times[lo:hi], service_trace.pages[lo:hi])
        stream.advance(stream.watermark)
        if hi < n:
            midgap = (stream.watermark + float(service_trace.times[hi])) / 2
            stream.advance(midgap)
    assert_bit_identical(
        offline_results["JOINT", False], stream.close(duration)
    )


def test_default_close_duration(fast_machine, service_trace):
    """close() with no duration rounds the watermark up to a period edge."""
    period = fast_machine.manager.period_s
    expected = max(
        int(np.ceil(float(service_trace.times[-1]) / period)), 1
    ) * period
    offline = run_method(
        "JOINT", service_trace, fast_machine, duration_s=expected,
        warm_start=False,
    )
    stream = StreamingManager("JOINT", fast_machine)
    stream.feed(service_trace.times, service_trace.pages)
    result = stream.close()
    assert result.duration_s == expected
    assert_bit_identical(offline, result)


def test_decisions_accumulate_incrementally(
    fast_machine, service_trace, duration
):
    """feed() returns exactly the new decisions; the prefix never changes."""
    stream = StreamingManager("JOINT", fast_machine)
    n = service_trace.num_accesses
    seen = []
    for lo in range(0, n, 500):
        seen += stream.feed(
            service_trace.times[lo : lo + 500],
            service_trace.pages[lo : lo + 500],
        )
        assert stream.decisions == seen
    result = stream.close(duration)
    assert result.decisions[: len(seen)] == seen
    assert len(result.decisions) == 3


class TestValidation:
    def test_non_monotonic_batch_rejected(self, fast_machine):
        stream = StreamingManager("JOINT", fast_machine)
        with pytest.raises(SimulationError):
            stream.feed([1.0, 0.5], [0, 1])

    def test_batch_before_watermark_rejected(self, fast_machine):
        stream = StreamingManager("JOINT", fast_machine)
        stream.feed([5.0], [0])
        with pytest.raises(SimulationError):
            stream.feed([4.0], [1])

    def test_writes_need_expect_writes(self, fast_machine):
        stream = StreamingManager("JOINT", fast_machine)
        with pytest.raises(SimulationError):
            stream.feed([1.0], [0], [True])

    def test_oracle_disk_rejected(self, fast_machine):
        with pytest.raises(SimulationError):
            StreamingManager("ORNAP", fast_machine)

    def test_feed_after_close_rejected(self, fast_machine):
        stream = StreamingManager("JOINT", fast_machine)
        stream.feed([1.0], [0])
        stream.close()
        assert stream.closed
        with pytest.raises(SimulationError):
            stream.feed([2.0], [1])

    def test_negative_page_rejected(self, fast_machine):
        # Trace rejects negative pages; the stream used to accept page -3.
        stream = StreamingManager("JOINT", fast_machine)
        with pytest.raises(SimulationError, match="non-negative"):
            stream.feed([1.0, 2.0], [0, -3])
        assert stream.accesses_fed == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, fast_machine, bad):
        # feed([0, NaN, 2]) used to return a SimResult counting 1 of 3.
        stream = StreamingManager("JOINT", fast_machine)
        with pytest.raises(SimulationError, match="finite"):
            stream.feed([0.0, bad, 2.0], [0, 1, 2])
        assert stream.accesses_fed == 0

    def test_advance_backwards_rejected(self, fast_machine):
        stream = StreamingManager("JOINT", fast_machine)
        stream.advance(10.0)
        with pytest.raises(SimulationError):
            stream.advance(5.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_advance_rejected(self, fast_machine, bad):
        # advance(nan) used to pass silently; advance(inf) fired every
        # pending decision and then rejected every later feed.
        stream = StreamingManager("JOINT", fast_machine)
        stream.feed([1.0, 2.0], [0, 1])
        with pytest.raises(SimulationError, match="finite"):
            stream.advance(bad)
        assert stream.watermark == 2.0
        stream.feed([3.0, 4.0], [2, 0])
        assert stream.accesses_fed == 4
        assert stream.watermark == 4.0

    def test_close_before_watermark_rejected(self, fast_machine):
        stream = StreamingManager("JOINT", fast_machine)
        stream.feed([200.0], [0])
        with pytest.raises(SimulationError):
            stream.close(100.0)

    def test_partial_period_warmup_rejected(self, fast_machine):
        with pytest.raises(SimulationError):
            StreamingManager("JOINT", fast_machine, warmup_s=42.0)


def test_request_blind_method_streams_missrun(fast_machine):
    """2T/always-on tenants batch their misses; request-aware ones don't."""
    assert StreamingManager("2TNAP", fast_machine).replay_mode == (
        "stream-missrun"
    )
    # PT's policy watches every request, so its stream stays vectorized.
    assert StreamingManager("PTNAP", fast_machine).replay_mode == (
        "stream-vectorized"
    )


class TestBackpressure:
    def test_cap_must_be_positive(self, fast_machine):
        with pytest.raises(SimulationError):
            StreamingManager("JOINT", fast_machine, max_buffered=0)

    def test_unbounded_by_default(self, fast_machine):
        stream = StreamingManager("JOINT", fast_machine)
        assert stream.max_buffered is None
        stream.feed([float(i) for i in range(64)], list(range(64)))
        assert stream.pending_accesses == 64

    def test_over_capacity_feed_rejected(self, fast_machine):
        stream = StreamingManager("JOINT", fast_machine, max_buffered=4)
        stream.feed([1.0, 2.0, 3.0], [0, 1, 2])
        assert stream.pending_accesses == 3
        with pytest.raises(SimulationError, match="max_buffered"):
            stream.feed([4.0, 5.0], [3, 4])
        # The rejected batch must not have been buffered.
        assert stream.pending_accesses == 3
        # Draining the pending period frees capacity again.
        period = fast_machine.manager.period_s
        stream.advance(2 * period)
        assert stream.pending_accesses == 0
        stream.feed([2 * period + 1.0, 2 * period + 2.0], [3, 4])
        assert stream.pending_accesses == 2


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fuzz_arbitrary_batch_splits(
    data, fast_machine, service_trace, duration, offline_results
):
    """Any split of the stream into batches yields the offline result."""
    n = service_trace.num_accesses
    cuts = data.draw(
        st.lists(st.integers(0, n), min_size=0, max_size=12).map(sorted)
    )
    bounds = [0] + cuts + [n]
    result = stream_in_batches(
        "JOINT", fast_machine, service_trace, duration, bounds
    )
    assert_bit_identical(offline_results["JOINT", False], result)
