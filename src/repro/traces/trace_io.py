"""Trace persistence: compressed .npz and line-oriented CSV.

The .npz form is lossless and fast; CSV is for interchange with external
tools (one ``time,page[,file]`` row per access).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from repro.errors import TraceError
from repro.traces.chunked import ChunkedTrace, TraceChunk
from repro.traces.trace import Trace

PathLike = Union[str, Path]


def save_npz(trace: Trace, path: PathLike) -> None:
    """Write a trace to a compressed .npz archive."""
    path = Path(path)
    arrays = {
        "times": trace.times,
        "pages": trace.pages,
        "page_size": np.asarray([trace.page_size]),
        "meta_json": np.asarray([json.dumps(trace.meta, default=str)]),
    }
    if trace.files is not None:
        arrays["files"] = trace.files
    if trace.writes is not None:
        arrays["writes"] = trace.writes
    np.savez_compressed(path, **arrays)


def load_npz(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_npz`.

    Archives written before write flags were persisted load as
    read-only traces (the ``writes`` member is optional).
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"][0]))
        return Trace(
            times=data["times"],
            pages=data["pages"],
            page_size=int(data["page_size"][0]),
            files=data["files"] if "files" in data else None,
            writes=data["writes"] if "writes" in data else None,
            meta=meta,
        )


def save_csv(trace: Trace, path: PathLike) -> None:
    """Write ``time,page[,file]`` rows with a header."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        if trace.files is not None:
            writer.writerow(["time", "page", "file"])
            for t, p, f in zip(trace.times, trace.pages, trace.files):
                writer.writerow([repr(float(t)), int(p), int(f)])
        else:
            writer.writerow(["time", "page"])
            for t, p in zip(trace.times, trace.pages):
                writer.writerow([repr(float(t)), int(p)])


def load_csv_chunked(path: PathLike, page_size: int = 4096) -> ChunkedTrace:
    """Stream a trace written by :func:`save_csv` (or any compatible CSV).

    Each iteration re-reads the file row by row, holding at most one
    chunk of parsed arrays.  Stream totals (``num_accesses``,
    ``duration_s``) are unknown up front and left ``None``.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")

    def chunk(times, pages, files) -> TraceChunk:
        return TraceChunk(
            times=np.asarray(times),
            pages=np.asarray(pages, dtype=np.int64),
            files=np.asarray(files, dtype=np.int64) if files else None,
        )

    def factory(chunk_accesses: int) -> Iterator[TraceChunk]:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise TraceError(f"empty trace file: {path}")
            has_files = len(header) >= 3
            times, pages, files = [], [], []
            emitted = False
            for row in reader:
                if not row:
                    continue
                times.append(float(row[0]))
                pages.append(int(row[1]))
                if has_files:
                    files.append(int(row[2]))
                if len(times) >= chunk_accesses:
                    yield chunk(times, pages, files)
                    times, pages, files = [], [], []
                    emitted = True
            # A header-only file is an empty trace, not an empty stream.
            if times or not emitted:
                yield chunk(times, pages, files)

    return ChunkedTrace(
        factory=factory,
        page_size=page_size,
        meta={"source": str(path)},
    )


def load_csv(path: PathLike, page_size: int = 4096) -> Trace:
    """:func:`load_csv_chunked` as one :class:`Trace`."""
    return load_csv_chunked(path, page_size).materialize()
