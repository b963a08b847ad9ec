"""Micro-benchmarks of the core data structures and the engine.

These are conventional pytest-benchmark timings (many rounds) of the
hot paths: stack-distance tracking, LRU operation, Pareto fitting, trace
generation and engine throughput.  They guard against performance
regressions that would make the full experiments impractical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.lru import LRUCache
from repro.cache.profile import build_profile
from repro.cache.stack_distance import StackDistanceTracker
from repro.config.machine import scaled_machine
from repro.sim.runner import run_method
from repro.stats.pareto import ParetoDistribution, fit_moments
from repro.traces.specweb import generate_trace
from repro.units import GB, MB


@pytest.fixture(scope="module")
def machine():
    return scaled_machine(1024)


@pytest.fixture(scope="module")
def trace(machine):
    return generate_trace(
        dataset_bytes=4 * GB,
        data_rate=100 * MB,
        duration_s=1200.0,
        page_size=machine.page_bytes,
        seed=3,
        file_scale=machine.scale,
    )


def test_stack_distance_batch_throughput(benchmark):
    """The tracker's array pass (profile builds, stream feeds, joint spans)."""
    rng = np.random.default_rng(1)
    pages = rng.zipf(1.3, size=20_000)

    def work():
        StackDistanceTracker().access_array(pages)

    benchmark(work)


def test_profile_build(benchmark, trace):
    benchmark.pedantic(build_profile, args=(trace,), rounds=3, iterations=1)


def test_lru_cache_throughput(benchmark):
    rng = np.random.default_rng(2)
    pages = rng.integers(0, 4096, size=20_000).tolist()

    def work():
        cache = LRUCache(1024)
        for page in pages:
            cache.access(page)

    benchmark(work)


def test_pareto_fit_throughput(benchmark):
    samples = ParetoDistribution(alpha=2.0, beta=1.0).sample(
        10_000, np.random.default_rng(3)
    )
    benchmark(fit_moments, samples)


def test_trace_generation(benchmark, machine):
    benchmark.pedantic(
        generate_trace,
        kwargs=dict(
            dataset_bytes=4 * GB,
            data_rate=100 * MB,
            duration_s=600.0,
            page_size=machine.page_bytes,
            seed=4,
            file_scale=machine.scale,
        ),
        rounds=3,
        iterations=1,
    )


def test_engine_throughput_fixed_method(benchmark, machine, trace):
    benchmark.pedantic(
        run_method,
        args=("2TFM-16GB", trace, machine),
        kwargs=dict(duration_s=1200.0),
        rounds=3,
        iterations=1,
    )


def test_engine_throughput_vectorized(benchmark, machine, trace):
    """The fast path with a prebuilt profile (kernels only, no build)."""
    profile = build_profile(trace)
    benchmark.pedantic(
        run_method,
        args=("2TFM-16GB", trace, machine),
        kwargs=dict(duration_s=1200.0, profile=profile),
        rounds=3,
        iterations=1,
    )


def test_engine_throughput_joint(benchmark, machine, trace):
    benchmark.pedantic(
        run_method,
        args=("JOINT", trace, machine),
        kwargs=dict(duration_s=1200.0),
        rounds=3,
        iterations=1,
    )
