"""PowerDownMemorySystem: the PD policy's energy model."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.memory_spec import MemorySpec
from repro.memory.system import NapMemorySystem, PowerDownMemorySystem
from repro.units import KB
from tests.memory.schedules import (
    assert_same_energy,
    checkpoint_time,
    schedules,
)


def small_spec():
    return MemorySpec(
        installed_bytes=64 * KB,
        bank_bytes=16 * KB,
        chip_bytes=16 * KB,
        page_bytes=4 * KB,
    )


@pytest.fixture()
def spec():
    return small_spec()


class TestEnergy:
    def test_idle_banks_converge_to_powerdown_power(self, spec):
        # With no accesses, every bank naps for one timeout then powers
        # down: energy ~ powerdown power x time for long horizons.
        system = PowerDownMemorySystem(spec)
        system.finalize(10_000.0)
        pd_power = spec.mode_power_watts["powerdown"] * spec.num_banks
        assert system.energy.static_j == pytest.approx(
            pd_power * 10_000.0, rel=0.01
        )

    def test_paper_30_percent_of_nap(self, spec):
        # Paper Section V-B1: power-down banks consume 30% of nap power,
        # so an idle PD memory sits at about a third of the nap baseline.
        pd = PowerDownMemorySystem(spec)
        nap = NapMemorySystem(spec, spec.installed_bytes)
        pd.finalize(10_000.0)
        nap.finalize(10_000.0)
        ratio = pd.energy.static_j / nap.energy.static_j
        assert ratio == pytest.approx(3.5 / 10.5, rel=0.02)

    def test_frequent_access_keeps_bank_in_nap(self, spec):
        # Accesses every 50 us (under the ~129-us timeout) to one bank:
        # that bank never powers down.
        system = PowerDownMemorySystem(spec)
        times = [i * 50e-6 for i in range(101)]
        for t in times:
            system.access(t, 0)  # page 0 -> bank 0
        window = times[-1]
        # Bank 0's static share over the window is nap power; extract it
        # by subtracting the other banks' (powerdown after timeout) share.
        system.finalize(window)
        nap_share = spec.mode_power_watts["nap"] * window
        assert system.energy.static_j >= nap_share * 0.99

    def test_wake_transition_charged(self, spec):
        system = PowerDownMemorySystem(spec)
        system.access(10.0, 0)  # bank 0 idle 10 s >> timeout: wake
        assert system.energy.transitions == 1
        system.access(10.0 + 20e-6, 0)  # within timeout: no new wake
        assert system.energy.transitions == 1

    def test_data_survives_powerdown(self, spec):
        system = PowerDownMemorySystem(spec)
        assert system.access(0.0, 3) is False
        # Hours later the page is still resident (power-down keeps data).
        assert system.access(3600.0, 3) is True

    def test_checkpoint_then_finalize_no_double_count(self, spec):
        a = PowerDownMemorySystem(spec)
        a.access(1.0, 0)
        a.checkpoint(50.0)
        a.access(60.0, 0)
        a.finalize(100.0)

        b = PowerDownMemorySystem(spec)
        b.access(1.0, 0)
        b.access(60.0, 0)
        b.finalize(100.0)
        assert a.energy.static_j == pytest.approx(b.energy.static_j)

    def test_not_resizable(self, spec):
        from repro.errors import SimulationError

        system = PowerDownMemorySystem(spec)
        assert system.resizable is False
        with pytest.raises(SimulationError):
            system.resize(0.0, 16 * KB)


def scalar_finalize(system, now: float) -> None:
    """:meth:`finalize` as the per-bank loop the vectorized one replaces."""
    system._advance_clock(now)
    for bank in range(system._last_access.size):
        system._accrue_bank(bank, now)


def replay_schedule(system, times, pages, segments, batched: bool) -> None:
    """Drive ``system`` through a schedule.

    The reference (``batched=False``) uses only the per-access scalar
    methods: ``access`` and the per-bank :func:`scalar_finalize`.
    """
    for lo, hi, kind, mark in segments:
        if mark is not None:
            at = checkpoint_time(times, lo, mark)
            if batched:
                system.checkpoint(at)
            else:
                scalar_finalize(system, at)
        if not batched:
            for i in range(lo, hi):
                system.access(float(times[i]), int(pages[i]))
        elif kind == "batch":
            system.charge_hit_run(times, pages, lo, hi)
        else:
            for i in range(lo, hi):
                system.charge_page_access(float(times[i]), int(pages[i]))


def assert_same_banks(a, b) -> None:
    assert np.array_equal(a._last_access, b._last_access)
    assert np.array_equal(a._accounted_until, b._accounted_until)


class TestBatchedAccrual:
    """``charge_hit_run`` batches charge exactly what ``access`` charges."""

    @given(
        schedule=schedules(),
        timeout=st.sampled_from([0.0, 0.25, 0.5, math.inf, None]),
    )
    @settings(deadline=None)
    def test_any_split_matches_access_loop(self, schedule, timeout):
        times, pages, segments = schedule
        spec = small_spec()
        batched = PowerDownMemorySystem(spec, timeout_s=timeout)
        reference = PowerDownMemorySystem(spec, timeout_s=timeout)
        replay_schedule(batched, times, pages, segments, batched=True)
        replay_schedule(reference, times, pages, segments, batched=False)
        assert_same_energy(batched, reference)
        assert_same_banks(batched, reference)
        end = float(times[-1]) + 1.75
        batched.finalize(end)
        scalar_finalize(reference, end)
        assert_same_energy(batched, reference)
        assert_same_banks(batched, reference)

    @pytest.mark.parametrize("run", [1, 2, 5])
    def test_zero_powerdown_power_matches_access_loop(self, run):
        # A spec may price power-down at 0 W: every access still charges
        # its bank's nap stretch up to the timeout, and nothing past it.
        spec = small_spec()
        spec = replace(
            spec, mode_power_watts={**spec.mode_power_watts, "powerdown": 0.0}
        )
        times = 3.0 * np.arange(1, run + 1, dtype=np.float64)
        pages = np.arange(run, dtype=np.int64) % 2
        batched = PowerDownMemorySystem(spec, timeout_s=1.0)
        reference = PowerDownMemorySystem(spec, timeout_s=1.0)
        batched.charge_hit_run(times, pages, 0, run)
        for now, page in zip(times.tolist(), pages.tolist()):
            reference.access(now, page)
        assert reference.energy.static_j > 0.0
        assert_same_energy(batched, reference)
        assert_same_banks(batched, reference)
        batched.finalize(20.0)
        scalar_finalize(reference, 20.0)
        assert_same_energy(batched, reference)

    def test_long_run_keeps_sequential_rounding(self):
        # 10^4 accesses onto a large carried static_j: a pairwise sum of
        # the run's charges rounds differently; the batch must not.
        spec = small_spec()
        rng = np.random.default_rng(7)
        n = 10_000
        times = 5_000.0 + np.cumsum(rng.exponential(1e-3, size=n))
        pages = rng.integers(0, 64, size=n)
        batched = PowerDownMemorySystem(spec)
        reference = PowerDownMemorySystem(spec)
        charges = []
        for system in (batched, reference):
            system.energy.static_j = 123_456.789
        batched.checkpoint(4_999.0)
        scalar_finalize(reference, 4_999.0)
        carried = reference.energy.static_j
        add_static = reference.energy.add_static

        def recording_add_static(power_w, duration_s):
            charges.append(power_w * duration_s)
            add_static(power_w, duration_s)

        reference.energy.add_static = recording_add_static
        batched.charge_hit_run(times, pages, 0, n)
        for now, page in zip(times.tolist(), pages.tolist()):
            reference.access(now, page)
        assert_same_energy(batched, reference)
        assert_same_banks(batched, reference)
        assert carried + np.sum(charges) != reference.energy.static_j
