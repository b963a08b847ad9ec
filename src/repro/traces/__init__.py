"""Workload traces: generation, transformation and inspection.

The paper collects disk-cache access traces from SPECWeb99 on a real web
server, then feeds them through a *synthesizer* that varies three
characteristics independently: data-set size, data rate and popularity
(Section V-A, Fig. 6).  This package provides:

* :mod:`repro.traces.fileset` -- a SPECWeb99-class file population,
* :mod:`repro.traces.specweb` -- the trace generator,
* :mod:`repro.traces.synthesizer` -- the paper's three transforms,
* :mod:`repro.traces.trace` -- the trace container and its statistics,
* :mod:`repro.traces.trace_io` -- persistence,
* :mod:`repro.traces.chunked` -- every source as a bounded-memory chunk
  stream, whose ``materialize()`` is the trace the builders return.
"""

from repro.traces import suites
from repro.traces.arrivals import bmodel_arrivals, gap_tail_weight, poisson_arrivals
from repro.traces.block_trace import from_requests, load_block_csv
from repro.traces.characterize import TraceStats, characterize
from repro.traces.compose import concatenate, interleave
from repro.traces.fileset import FileSet, specweb_fileset
from repro.traces.modulation import diurnal_profile, modulate_rate, onoff_profile
from repro.traces.specweb import SpecWebGenerator, generate_trace
from repro.traces.synthesizer import (
    densify_popularity,
    scale_data_rate,
    scale_dataset,
)
from repro.traces.trace import Trace
from repro.traces.zipf import ZipfSampler, calibrate_exponent, popularity_ratio

__all__ = [
    "FileSet",
    "TraceStats",
    "bmodel_arrivals",
    "gap_tail_weight",
    "poisson_arrivals",
    "characterize",
    "concatenate",
    "interleave",
    "diurnal_profile",
    "from_requests",
    "load_block_csv",
    "modulate_rate",
    "onoff_profile",
    "suites",
    "SpecWebGenerator",
    "Trace",
    "ZipfSampler",
    "calibrate_exponent",
    "densify_popularity",
    "generate_trace",
    "popularity_ratio",
    "scale_data_rate",
    "scale_dataset",
    "specweb_fileset",
]
