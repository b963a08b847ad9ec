"""Block-trace import."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.block_trace import from_requests, load_block_csv
from repro.traces.chunked import ChunkedTrace


class TestFromRequests:
    def test_single_page_request(self):
        trace = from_requests([1.0], [8192], [100], page_size=4096)
        assert trace.pages.tolist() == [2]
        assert trace.times.tolist() == [1.0]

    def test_spanning_request(self):
        # Bytes [4000, 12000) with 4096-byte pages touch pages 0, 1, 2.
        trace = from_requests([0.0], [4000], [8000], page_size=4096)
        assert trace.pages.tolist() == [0, 1, 2]

    def test_page_aligned_request(self):
        trace = from_requests([0.0], [4096], [8192], page_size=4096)
        assert trace.pages.tolist() == [1, 2]

    def test_intra_request_spacing(self):
        trace = from_requests(
            [0.0], [0], [3 * 4096], page_size=4096, intra_request_gap_s=0.01
        )
        assert np.allclose(np.diff(trace.times), 0.01)

    def test_requests_interleave_in_time_order(self):
        trace = from_requests(
            [0.0, 0.001],
            [0, 40960],
            [3 * 4096, 4096],
            page_size=4096,
            intra_request_gap_s=0.01,
        )
        assert np.all(np.diff(trace.times) >= 0)
        assert set(trace.pages.tolist()) == {0, 1, 2, 10}

    def test_files_column_tracks_request(self):
        trace = from_requests([0.0, 1.0], [0, 8192], [4096, 4096])
        assert trace.files.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(times=[0.0], offsets=[0], sizes=[0]),
            dict(times=[0.0], offsets=[-1], sizes=[10]),
            dict(times=[], offsets=[], sizes=[]),
            dict(times=[0.0, 1.0], offsets=[0], sizes=[10]),
            dict(times=[0.0], offsets=[0], sizes=[10], page_size=0),
            dict(times=[0.0], offsets=[0], sizes=[10], intra_request_gap_s=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(TraceError):
            from_requests(**kwargs)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "io.csv"
        path.write_text("time,offset,size\n0.5,4096,4096\n1.5,0,8192\n")
        trace = load_block_csv(path, page_size=4096)
        assert trace.pages.tolist() == [1, 0, 1]
        assert trace.meta["requests"] == 2

    def test_unsorted_input_is_sorted(self, tmp_path):
        path = tmp_path / "io.csv"
        path.write_text("time,offset,size\n2.0,0,100\n1.0,4096,100\n")
        trace = load_block_csv(path, page_size=4096)
        assert trace.times.tolist() == [1.0, 2.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_block_csv(tmp_path / "none.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            load_block_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("time,offset,size\n")
        with pytest.raises(TraceError):
            load_block_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,offset,size\n1.0,2\n")
        with pytest.raises(TraceError):
            load_block_csv(path)

    def test_imported_trace_runs_through_engine(self, tmp_path, fast_machine):
        from repro.sim.runner import run_method

        rows = ["time,offset,size"]
        rng = np.random.default_rng(5)
        page = fast_machine.page_bytes
        for i in range(200):
            offset = int(rng.integers(0, 100)) * page
            rows.append(f"{i * 2.0},{offset},{page}")
        path = tmp_path / "real.csv"
        path.write_text("\n".join(rows) + "\n")
        trace = load_block_csv(path, page_size=page)
        result = run_method(
            "2TFM-16GB", trace, fast_machine, duration_s=480.0, audit=True
        )
        assert result.total_accesses == 200


class TestUnsortedRequestStream:
    @pytest.mark.parametrize("chunk_accesses", [1, 7, 64])
    def test_any_chunk_size_matches_materialized(self, chunk_accesses):
        # Late requests listed early: the carryover may only release
        # accesses up to the earliest arrival still unexpanded.
        from repro.traces.block_trace import from_requests_chunked

        rng = np.random.default_rng(23)
        times = np.round(rng.uniform(0, 1, 120), 2)
        offsets = rng.integers(0, 64, 120) * 4096
        sizes = rng.integers(1, 6 * 4096, 120)
        expected = from_requests(times, offsets, sizes, page_size=4096)
        chunked = from_requests_chunked(times, offsets, sizes, page_size=4096)
        parts = list(chunked.chunks(chunk_accesses))
        assert np.array_equal(
            np.concatenate([p.times for p in parts]), expected.times
        )
        assert np.array_equal(
            np.concatenate([p.pages for p in parts]), expected.pages
        )
        assert np.array_equal(
            np.concatenate([p.files for p in parts]), expected.files
        )


class TestChunkedCsv:
    def _write_fuzzed_csv(self, path, seed, rows=400, page=4096):
        """Bursty, tie-heavy request log: the stable-sort stress shape."""
        rng = np.random.default_rng(seed)
        times = np.round(np.cumsum(rng.exponential(0.02, size=rows)), 3)
        # Repeated timestamps (ties) and out-of-order lines both occur.
        times[rng.random(rows) < 0.3] = np.round(times.mean(), 3)
        order = rng.permutation(rows)
        lines = ["time,offset,size"]
        for i in order:
            offset = int(rng.integers(0, 64)) * page
            size = int(rng.integers(1, 5 * page))
            lines.append(f"{times[i]},{offset},{size}")
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("chunk_accesses", [1, 7, 64, 10**6])
    def test_bit_identical_to_materialized(self, tmp_path, chunk_accesses):
        from repro.traces.block_trace import load_block_csv_chunked

        path = tmp_path / "fuzz.csv"
        self._write_fuzzed_csv(path, seed=9)
        expected = load_block_csv(path, page_size=4096)
        chunked = load_block_csv_chunked(path, page_size=4096)
        parts = list(chunked.chunks(chunk_accesses))
        actual = ChunkedTrace(
            factory=lambda _: iter(parts), meta=chunked.meta
        ).materialize()
        assert np.array_equal(actual.times, expected.times)
        assert np.array_equal(actual.pages, expected.pages)
        assert np.array_equal(actual.files, expected.files)
        assert actual.times.dtype == expected.times.dtype
        assert actual.pages.dtype == expected.pages.dtype
        assert chunked.num_accesses == expected.num_accesses
        assert chunked.duration_s == expected.duration_s
        assert chunked.meta == expected.meta

    def test_chunks_are_bounded(self, tmp_path):
        from repro.traces.block_trace import load_block_csv_chunked

        path = tmp_path / "fuzz.csv"
        self._write_fuzzed_csv(path, seed=11)
        chunked = load_block_csv_chunked(path, page_size=4096)
        sizes = [len(chunk) for chunk in chunked.chunks(32)]
        assert sum(sizes) == chunked.num_accesses
        # Every chunk except the last is exactly the requested size.
        assert all(s == 32 for s in sizes[:-1])
        assert 0 < sizes[-1] <= 32

    def test_validation(self, tmp_path):
        from repro.traces.block_trace import load_block_csv_chunked

        path = tmp_path / "one.csv"
        path.write_text("time,offset,size\n0.0,0,4096\n")
        with pytest.raises(TraceError):
            next(load_block_csv_chunked(path).chunks(0))
        with pytest.raises(TraceError):
            load_block_csv_chunked(tmp_path / "none.csv")

    def test_replays_identically_to_materialized(self, tmp_path, fast_machine):
        from repro.sim.runner import run_chunked, run_method
        from repro.traces.block_trace import load_block_csv_chunked

        page = fast_machine.page_bytes
        rng = np.random.default_rng(5)
        rows = ["time,offset,size"]
        for i in range(200):
            offset = int(rng.integers(0, 100)) * page
            rows.append(f"{i * 2.0},{offset},{int(rng.integers(1, 3)) * page}")
        path = tmp_path / "real.csv"
        path.write_text("\n".join(rows) + "\n")
        offline = run_method(
            "2TFM-16GB",
            load_block_csv(path, page_size=page),
            fast_machine,
            duration_s=480.0,
            warm_start=False,
        )
        chunked = run_chunked(
            "2TFM-16GB",
            load_block_csv_chunked(path, page_size=page),
            fast_machine,
            duration_s=480.0,
            chunk_accesses=37,
        )
        assert chunked.total_accesses == offline.total_accesses
        assert chunked.disk_energy_j == offline.disk_energy_j
        assert chunked.memory_energy_j == offline.memory_energy_j
