"""Named canonical workloads.

One-liners for the workload situations the paper (and this repository's
extensions) care about.  Every suite entry is a chunked-trace factory
keyed by name; ``build_chunked(name, machine, ...)`` returns its
:class:`~repro.traces.chunked.ChunkedTrace` at the machine's granularity
and ``build(name, machine, ...)`` the materialized trace.

========================  ====================================================
name                      situation
========================  ====================================================
``paper-default``         Section V-B's centre point: 16 GB, 100 MB/s, 0.1
``small-dataset``         4 GB at 100 MB/s -- memory sizing dominates
``dense-popularity``      16 GB at 5 MB/s, popularity 0.05 -- tiny hot set
``sparse-popularity``     16 GB at 5 MB/s, popularity 0.6 -- hot set > 8 GB
``low-rate``              16 GB at 5 MB/s -- long idleness, spin-down heaven
``high-rate``             16 GB at 200 MB/s -- short gaps, timeouts must grow
``diurnal``               16 GB, 60 MB/s average with an 8:1 day/night swing
``bursty``                16 GB, on/off plateaus with near-quiet valleys
``write-heavy``           16 GB at 20 MB/s with 20 % upload requests
``self-similar``          16 GB at 20 MB/s, b-model bursty arrivals
========================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.config.machine import MachineConfig
from repro.errors import TraceError
from repro.traces.chunked import ChunkedTrace
from repro.traces.modulation import (
    diurnal_profile,
    modulate_rate_chunked,
    onoff_profile,
)
from repro.traces.specweb import specweb_generator
from repro.traces.trace import Trace
from repro.units import GB, MB

Builder = Callable[[MachineConfig, float, int], ChunkedTrace]


def _specweb(dataset_gb, rate_mb, popularity=0.1, **options):
    def build(machine: MachineConfig, duration_s: float, seed: int):
        return specweb_generator(
            dataset_gb * GB,
            rate_mb * MB,
            popularity,
            page_size=machine.page_bytes,
            seed=seed,
            file_scale=machine.scale,
            **options,
        ).generate_chunked(duration_s)

    return build


def _modulated(profile_factory, dataset_gb=16, rate_mb=60):
    base_build = _specweb(dataset_gb, rate_mb)

    def build(machine: MachineConfig, duration_s: float, seed: int):
        flat = base_build(machine, duration_s, seed)
        return modulate_rate_chunked(flat, profile_factory(duration_s))

    return build


SUITES: Dict[str, Builder] = {
    "paper-default": _specweb(16, 100),
    "small-dataset": _specweb(4, 100),
    "dense-popularity": _specweb(16, 5, popularity=0.05),
    "sparse-popularity": _specweb(16, 5, popularity=0.6),
    "low-rate": _specweb(16, 5),
    "high-rate": _specweb(16, 200),
    "diurnal": _modulated(
        lambda duration: diurnal_profile(duration, peak_to_trough=8.0)
    ),
    "bursty": _modulated(
        lambda duration: onoff_profile(duration, on_fraction=0.4)
    ),
    "write-heavy": _specweb(16, 20, write_fraction=0.2),
    "self-similar": _specweb(16, 20, arrival_process="selfsimilar"),
}


def suite_names() -> List[str]:
    return sorted(SUITES)


def build(
    name: str,
    machine: MachineConfig,
    duration_s: float,
    seed: int = 42,
) -> Trace:
    """Build the named workload at the machine's granularity."""
    return build_chunked(name, machine, duration_s, seed).materialize()


def build_chunked(
    name: str,
    machine: MachineConfig,
    duration_s: float,
    seed: int = 42,
) -> ChunkedTrace:
    """The named workload as a bounded-memory chunk stream."""
    key = name.strip().lower()
    if key not in SUITES:
        raise TraceError(
            f"unknown workload suite {name!r}; available: "
            + ", ".join(suite_names())
        )
    return SUITES[key](machine, duration_s, seed).with_meta(suite=key)
