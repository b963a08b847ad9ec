"""CHECKS["parity"]: passes on clean code, catches injected miss-run bugs.

The three mutations mirror the miss-run kernel's load-bearing pieces:
the disk's busy-until recurrence, the sequential-merge pricing, and the
wake-delay clamp.  Each is patched at class/module level so the
batchable-disk predicate (which only rejects *instance*-level patches)
still routes runs through the mutated fast path.
"""

from __future__ import annotations

import pytest

import repro.sim.kernels as kernels
from repro.disk.drive import SimDisk
from repro.verify.differential import CHECKS, run_differential
from repro.verify.strategies import random_case


def test_missrun_check_clean(seed_range=range(12, 24)):
    for seed in seed_range:
        assert CHECKS["parity"](random_case(seed)) is None


def test_missrun_check_via_runner():
    report = run_differential(seeds=6, checks=["parity"], first_seed=6)
    assert report.ok
    assert report.outcomes[0].name == "parity"


def _first_divergence(max_seed=30):
    for seed in range(max_seed):
        diff = CHECKS["parity"](random_case(seed))
        if diff is not None:
            return seed, diff
    return None, None


def test_catches_busy_until_off_by_one(monkeypatch):
    """A drive that finishes every batched run one second late."""
    original = SimDisk.submit_run

    def buggy(self, times, services):
        out = original(self, times, services)
        if times:
            self._busy_until += 1.0
        return out

    monkeypatch.setattr(SimDisk, "submit_run", buggy)
    seed, diff = _first_divergence()
    assert diff is not None, "busy_until off-by-one escaped the parity check"
    assert seed is not None


def test_catches_dropped_sequential_merge(monkeypatch):
    """Pricing every batched miss as a first page (seq flags ignored)."""

    def buggy(service, seq):
        svc_first = service.service_time(1, False)
        return [svc_first] * len(seq)

    monkeypatch.setattr(kernels, "_miss_run_services", buggy)
    seed, diff = _first_divergence()
    assert diff is not None, (
        "dropped sequential-merge flag escaped the parity check"
    )


def test_catches_misclamped_wake_delay(monkeypatch):
    """A batch path that reports every wake as instantaneous."""
    original = SimDisk.submit_run

    def buggy(self, times, services):
        latencies, wake_delays = original(self, times, services)
        return latencies, [0.0] * len(wake_delays)

    monkeypatch.setattr(SimDisk, "submit_run", buggy)
    seed, diff = _first_divergence()
    assert diff is not None, "mis-clamped wake delay escaped the parity check"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_is_deterministic(seed):
    case = random_case(seed)
    assert CHECKS["parity"](case) == CHECKS["parity"](case)
