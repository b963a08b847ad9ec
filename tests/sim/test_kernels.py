"""Vectorized/epoch replay kernels: bit-identity with the scalar loop.

The fast paths promise the *same floating-point operations* as the
per-access reference loop, so every comparison here is exact equality --
no tolerances anywhere.  Joint-manager runs take the ``"epoch"`` mode
(decisions included in the comparison), fixed-capacity nap/power-down
runs take ``"missrun"`` under a request-blind policy (2T, always-on)
and ``"vectorized"`` under a request-aware one (PT/EA/AD/OR),
write-carrying traces take ``"writes"``, the disable memory model takes
``"disable"``, and the remaining fallback conditions (joint write-back
runs, the ``$REPRO_KERNELS`` kill switch) must route through the scalar
loop and say so in ``SimResult.replay_mode``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cache.profile import build_profile, clear_memo
from repro.config.machine import scaled_machine
from repro.memory.system import NapMemorySystem
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.sim import kernels
from repro.sim.engine import SimulationEngine
from repro.sim.runner import run_method
from repro.traces.specweb import generate_trace
from repro.traces.trace import Trace
from repro.units import GB, MB
from repro.verify.differential import CHECKS, deep_diff
from repro.verify.strategies import random_case


@pytest.fixture(scope="module")
def machine():
    return scaled_machine(1024)


@pytest.fixture(scope="module")
def trace(machine):
    return generate_trace(
        dataset_bytes=4 * GB,
        data_rate=100 * MB,
        duration_s=600.0,
        page_size=machine.page_bytes,
        seed=3,
        file_scale=machine.scale,
    )


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _stripped(result) -> dict:
    d = dataclasses.asdict(result)
    d.pop("replay_mode")
    return d


def _assert_identical(fast, slow, mode=kernels.MODE_VECTORIZED):
    assert fast.replay_mode == mode
    assert slow.replay_mode == kernels.MODE_SCALAR
    for f in dataclasses.fields(fast):
        if f.name == "replay_mode":
            continue
        diff = deep_diff(getattr(fast, f.name), getattr(slow, f.name), f.name)
        assert diff is None, diff


def _clip_input(trace, duration_s, tied):
    """``trace``, or with one more access exactly at ``duration_s``.

    The access at the duration must be cut off: every replay keeps only
    accesses strictly before it.
    """
    if not tied:
        return trace
    k = int(np.searchsorted(trace.times, duration_s, side="left"))
    writes = trace.writes
    return Trace(
        times=np.insert(trace.times, k, duration_s),
        pages=np.insert(trace.pages, k, trace.pages[0]),
        page_size=trace.page_size,
        writes=None if writes is None else np.insert(writes, k, True),
    )


def _observed(trace, warmup_s, duration_s):
    """Accesses a run of ``trace`` counts: those in ``[warmup_s, duration_s)``."""
    times = trace.times
    return int(np.count_nonzero((times >= warmup_s) & (times < duration_s)))


class TestIdentity:
    # Request-blind policies (2T, always-on) batch their misses through
    # submit_run ("missrun"); request-aware ones (PT/EA/AD/OR) must see
    # every request individually and stay on "vectorized".
    @pytest.mark.parametrize(
        "method,mode",
        [
            ("2TFM-8GB", kernels.MODE_MISSRUN),
            ("2TFM-16GB", kernels.MODE_MISSRUN),
            ("ALWAYS-ON", kernels.MODE_MISSRUN),
            ("PTFM-16GB", kernels.MODE_VECTORIZED),
            ("EAFM-8GB", kernels.MODE_VECTORIZED),
            ("ADFM-16GB", kernels.MODE_VECTORIZED),
            ("ORFM-16GB", kernels.MODE_VECTORIZED),
            ("2TNAP", kernels.MODE_MISSRUN),
            ("2TPD", kernels.MODE_MISSRUN),
        ],
    )
    def test_run_method_identical(self, method, mode, trace, machine):
        fast = run_method(method, trace, machine, audit=True, profile="auto")
        slow = run_method(method, trace, machine, audit=True, profile=None)
        _assert_identical(fast, slow, mode=mode)

    def test_cold_start_identical(self, trace, machine):
        fast = run_method(
            "2TFM-16GB", trace, machine, warm_start=False, profile="auto"
        )
        slow = run_method(
            "2TFM-16GB", trace, machine, warm_start=False, profile=None
        )
        _assert_identical(fast, slow, mode=kernels.MODE_MISSRUN)

    def test_warmup_and_duration_clipping(self, trace, machine):
        period = machine.manager.period_s
        kwargs = dict(duration_s=3 * period, warmup_s=period)
        for tied in (False, True):
            clipped = _clip_input(trace, 3 * period, tied)
            for method, mode in (
                ("2TFM-16GB", kernels.MODE_MISSRUN),
                ("ADFM-16GB", kernels.MODE_VECTORIZED),
            ):
                fast = run_method(
                    method, clipped, machine, profile="auto", **kwargs
                )
                slow = run_method(
                    method, clipped, machine, profile=None, **kwargs
                )
                _assert_identical(fast, slow, mode=mode)
                assert fast.total_accesses == _observed(clipped, period, 3 * period)

    def test_seeded_verify_corpus(self):
        # The differential check compares every SimResult field exactly;
        # its fuzz corpus exercises bursts, sequential scans and loops.
        for seed in range(20):
            assert CHECKS["kernels"](random_case(seed)) is None

    def test_zero_capacity_memory(self, machine):
        # Everything misses; the hit kernels never fire and the whole
        # trace replays as boundary-split miss runs, which must still
        # agree exactly.
        rng = np.random.default_rng(11)
        small = Trace(
            times=np.sort(rng.uniform(0.0, 120.0, 300)),
            pages=rng.integers(0, 50, 300).astype(np.int64),
            page_size=machine.page_bytes,
        )
        profile = build_profile(small, warm_start=False)

        def run(prof):
            memory = NapMemorySystem(machine.memory, 0)
            engine = SimulationEngine(
                machine, memory, disk_policy=FixedTimeoutPolicy(1.0)
            )
            return engine.run(small, profile=prof)

        _assert_identical(run(profile), run(None), mode=kernels.MODE_MISSRUN)


class TestEpochIdentity:
    """Joint-manager runs through the epoch-segmented fast path.

    The decision history (every ``PeriodDecision``, including each
    candidate evaluation's prediction arrays and Pareto fit) is part of
    the exact comparison -- the epoch kernel feeds the predictor from
    profile depths instead of the manager's live tracker, and this is
    where a depth mismatch would surface.
    """

    @pytest.mark.parametrize(
        "method", ["JOINT", "JOINT-NC", "JOINT-MEM", "JOINT-TO"]
    )
    def test_joint_methods_identical(self, method, trace, machine):
        fast = run_method(method, trace, machine, profile="auto")
        slow = run_method(method, trace, machine, profile=None)
        assert fast.decisions, "expected at least one period decision"
        _assert_identical(fast, slow, mode=kernels.MODE_EPOCH)

    def test_cold_start_identical(self, trace, machine):
        fast = run_method("JOINT", trace, machine, warm_start=False, profile="auto")
        slow = run_method("JOINT", trace, machine, warm_start=False, profile=None)
        _assert_identical(fast, slow, mode=kernels.MODE_EPOCH)

    def test_warmup_and_multi_period(self, trace, machine):
        period = machine.manager.period_s
        kwargs = dict(duration_s=3 * period, warmup_s=period)
        for tied in (False, True):
            clipped = _clip_input(trace, 3 * period, tied)
            fast = run_method("JOINT", clipped, machine, profile="auto", **kwargs)
            slow = run_method("JOINT", clipped, machine, profile=None, **kwargs)
            _assert_identical(fast, slow, mode=kernels.MODE_EPOCH)
            assert fast.total_accesses == _observed(clipped, period, 3 * period)

    def test_seeded_verify_corpus(self):
        # The epoch differential check stretches each fuzz case across
        # several periods and rotates through the joint ablations.
        for seed in range(20):
            assert CHECKS["epoch"](random_case(seed)) is None

    def test_epoch_misses_match_per_access_walk(self):
        # The reference: one access at a time, hit iff the depth is
        # below the resident count, which each miss grows to capacity.
        def walk(depths, resident, capacity):
            misses = []
            for i, depth in enumerate(depths.tolist()):
                if 0 <= depth < resident:
                    continue
                misses.append(i)
                resident = min(resident + 1, capacity)
            return misses, resident

        rng = np.random.default_rng(5)
        for _ in range(2000):
            capacity = int(rng.integers(0, 30))
            resident = int(rng.integers(0, capacity + 1))
            depths = rng.integers(-1, 40, int(rng.integers(0, 40)))
            misses, after = kernels._epoch_misses(
                depths, 0, depths.size, resident, capacity
            )
            assert (misses.tolist(), after) == walk(depths, resident, capacity)

    def test_joint_with_writes_stays_scalar(self, machine):
        writeful = generate_trace(
            dataset_bytes=4 * GB,
            data_rate=100 * MB,
            duration_s=300.0,
            page_size=machine.page_bytes,
            seed=5,
            file_scale=machine.scale,
            write_fraction=0.2,
        )
        fast = run_method("JOINT", writeful, machine, profile="auto")
        slow = run_method("JOINT", writeful, machine, profile=None)
        assert fast.replay_mode == kernels.MODE_SCALAR
        _assert_identical(fast, slow, mode=kernels.MODE_SCALAR)

    def test_kill_switch_forces_scalar(self, trace, machine, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        result = run_method("JOINT", trace, machine, profile="auto")
        assert result.replay_mode == kernels.MODE_SCALAR


def _write_trace(machine, seed=5, duration_s=300.0, write_fraction=0.2):
    writeful = generate_trace(
        dataset_bytes=4 * GB,
        data_rate=100 * MB,
        duration_s=duration_s,
        page_size=machine.page_bytes,
        seed=seed,
        file_scale=machine.scale,
        write_fraction=write_fraction,
    )
    assert writeful.writes is not None and writeful.writes.any()
    return writeful


class TestWriteIdentity:
    """Write-carrying traces through the ``"writes"`` fast path.

    Write-allocate means the LRU evolves exactly as in the read-only
    replay, so the profile's hit mask stays valid; what the fast path
    must get right is splitting hit runs at periodic flush sweeps so
    each sweep sees precisely the dirty pages marked before it.
    """

    @pytest.mark.parametrize(
        "method", ["2TFM-8GB", "2TFM-16GB", "ALWAYS-ON", "2TNAP", "2TPD"]
    )
    def test_run_method_identical(self, method, machine):
        writeful = _write_trace(machine)
        fast = run_method(method, writeful, machine, audit=True, profile="auto")
        slow = run_method(method, writeful, machine, audit=True, profile=None)
        _assert_identical(fast, slow, mode=kernels.MODE_WRITES)

    def test_cold_start_identical(self, machine):
        writeful = _write_trace(machine, seed=7)
        fast = run_method(
            "2TFM-16GB", writeful, machine, warm_start=False, profile="auto"
        )
        slow = run_method(
            "2TFM-16GB", writeful, machine, warm_start=False, profile=None
        )
        _assert_identical(fast, slow, mode=kernels.MODE_WRITES)

    def test_warmup_and_duration_clipping(self, machine):
        period = machine.manager.period_s
        writeful = _write_trace(machine, seed=9, duration_s=4 * period)
        kwargs = dict(duration_s=3 * period, warmup_s=period)
        for tied in (False, True):
            clipped = _clip_input(writeful, 3 * period, tied)
            fast = run_method("2TFM-16GB", clipped, machine, profile="auto", **kwargs)
            slow = run_method("2TFM-16GB", clipped, machine, profile=None, **kwargs)
            _assert_identical(fast, slow, mode=kernels.MODE_WRITES)
            assert fast.total_accesses == _observed(clipped, period, 3 * period)

    def test_write_heavy_trace(self, machine):
        writeful = _write_trace(machine, seed=13, write_fraction=0.8)
        fast = run_method("2TFM-16GB", writeful, machine, audit=True, profile="auto")
        slow = run_method("2TFM-16GB", writeful, machine, audit=True, profile=None)
        assert fast.disk_write_pages > 0
        _assert_identical(fast, slow, mode=kernels.MODE_WRITES)

    def test_seeded_verify_corpus(self):
        # Fuzzes flush intervals, nap/pd models, warm/cold starts and
        # write densities; every SimResult field compared exactly.
        for seed in range(20):
            assert CHECKS["writes"](random_case(seed)) is None


class TestDisableIdentity:
    """The disable model (2TDS) through the ``"disable"`` fast path.

    Chip invalidations make 2TDS hit/miss outcomes unpredictable from a
    stack-distance profile, so its fast path replays hit runs from the
    *live* bank state instead -- an access is a guaranteed hit iff its
    page's bank is resident and still inside the timeout window.  The
    disable mode needs no profile, so ``profile=None`` does not force
    the scalar loop; the reference legs use the kill switch instead.
    """

    def test_run_method_identical(self, trace, machine, monkeypatch):
        fast = run_method("2TDS", trace, machine, audit=True, profile="auto")
        monkeypatch.setenv("REPRO_KERNELS", "0")
        slow = run_method("2TDS", trace, machine, audit=True, profile="auto")
        _assert_identical(fast, slow, mode=kernels.MODE_DISABLE)

    def test_cold_start_identical(self, trace, machine, monkeypatch):
        fast = run_method("2TDS", trace, machine, warm_start=False, profile="auto")
        monkeypatch.setenv("REPRO_KERNELS", "0")
        slow = run_method("2TDS", trace, machine, warm_start=False, profile="auto")
        _assert_identical(fast, slow, mode=kernels.MODE_DISABLE)

    def test_warmup_and_duration_clipping(self, trace, machine, monkeypatch):
        period = machine.manager.period_s
        kwargs = dict(duration_s=3 * period, warmup_s=period)
        for tied in (False, True):
            clipped = _clip_input(trace, 3 * period, tied)
            monkeypatch.delenv("REPRO_KERNELS", raising=False)
            fast = run_method("2TDS", clipped, machine, profile="auto", **kwargs)
            monkeypatch.setenv("REPRO_KERNELS", "0")
            slow = run_method("2TDS", clipped, machine, profile="auto", **kwargs)
            _assert_identical(fast, slow, mode=kernels.MODE_DISABLE)
            assert fast.total_accesses == _observed(clipped, period, 3 * period)

    def test_disable_with_writes_stays_scalar(self, machine):
        # Flush sweeps interleave with invalidation-driven residency
        # changes, which only the live scalar loop tracks.
        writeful = _write_trace(machine)
        result = run_method("2TDS", writeful, machine, profile="auto")
        assert result.replay_mode == kernels.MODE_SCALAR

    def test_seeded_verify_corpus(self):
        # The epoch check's second leg fuzzes 2TDS capacities/timeouts
        # against the kill-switch-forced scalar loop.
        for seed in range(20):
            assert CHECKS["epoch"](random_case(seed)) is None


class TestFallbacks:
    def test_per_bank_memory_vectorizes(self, trace, machine):
        # PD retains data across power-down, so its hit/miss stream is
        # profile-predictable; under the request-blind 2T policy it now
        # batches misses too.
        result = run_method("2TPD", trace, machine, profile="auto")
        assert result.replay_mode == kernels.MODE_MISSRUN

    def test_kill_switch_forces_scalar(self, trace, machine, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        result = run_method("2TFM-16GB", trace, machine, profile="auto")
        assert result.replay_mode == kernels.MODE_SCALAR
        # The disable mode bypasses the profile gate, so the kill switch
        # must short-circuit before the memory-model dispatch.
        result = run_method("2TDS", trace, machine, profile="auto")
        assert result.replay_mode == kernels.MODE_SCALAR

    def test_explicit_none_forces_scalar(self, trace, machine):
        result = run_method("2TFM-16GB", trace, machine, profile=None)
        assert result.replay_mode == kernels.MODE_SCALAR


class TestFastPathReason:
    def test_reasons(self, trace, machine):
        memory = NapMemorySystem(machine.memory, machine.memory.installed_bytes)
        engine = SimulationEngine(
            machine, memory, disk_policy=FixedTimeoutPolicy(1.0)
        )
        assert kernels.fast_path_reason(engine, trace, None) is not None
        profile = build_profile(trace)
        assert kernels.fast_path_reason(engine, trace, profile) is None
        short = trace.slice_time(0.0, trace.duration_s / 2)
        assert kernels.fast_path_reason(engine, short, profile) is not None
