"""Property-based invariants of the drive's state machine.

Random arrival sequences with random timeout changes must always satisfy:
FCFS ordering, latency >= service time, wake delays bounded by the full
round trip, time conservation at finalize, and energy bounds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.disk_spec import DiskSpec
from repro.disk.drive import SimDisk
from repro.disk.events import DiskEventLog
from repro.disk.service import ServiceModel
from repro.units import KB

arrival_gaps = st.lists(
    st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=30
)
timeouts = st.one_of(
    st.none(), st.floats(min_value=0.0, max_value=40.0)
)


def make_disk():
    spec = DiskSpec()
    return spec, SimDisk(spec, ServiceModel(spec, page_bytes=4 * KB))


@given(gaps=arrival_gaps, timeout=timeouts)
@settings(max_examples=100, deadline=None)
def test_latency_and_ordering_invariants(gaps, timeout):
    spec, disk = make_disk()
    disk.set_timeout(0.0, timeout)
    service = disk.service.service_time(1)
    now = 0.0
    previous_finish = 0.0
    for gap in gaps:
        now += gap
        result = disk.submit(now, 1)
        # FCFS: completions never reorder.
        assert result.finish_s >= previous_finish
        previous_finish = result.finish_s
        # A request is never faster than its service time.
        assert result.latency_s >= service - 1e-12
        # Wake delay is bounded by the full round trip.
        assert 0.0 <= result.wake_delay_s <= spec.transition_time_s + 1e-9
        # The wake delay is part of the latency.
        assert result.latency_s >= result.wake_delay_s - 1e-12


@given(gaps=arrival_gaps, timeout=timeouts)
@settings(max_examples=100, deadline=None)
def test_time_conservation_property(gaps, timeout):
    spec, disk = make_disk()
    disk.set_timeout(0.0, timeout)
    now = 0.0
    for gap in gaps:
        now += gap
        disk.submit(now, 1)
    end = now + 100.0
    disk.finalize(end)
    accounted = (
        disk.energy.active_s
        + disk.energy.idle_s
        + disk.energy.standby_s
        + disk.energy.transition_s
    )
    # Conservation up to one unconsumed spin-up (a cycle that never woke).
    assert accounted == pytest.approx(end, abs=spec.spin_up_time_s + 1e-6)
    assert accounted >= end - 1e-6


@given(
    gaps=arrival_gaps,
    first_timeout=timeouts,
    second_timeout=timeouts,
)
@settings(max_examples=60, deadline=None)
def test_energy_bounds_with_midstream_timeout_change(
    gaps, first_timeout, second_timeout
):
    spec, disk = make_disk()
    disk.set_timeout(0.0, first_timeout)
    now = 0.0
    for index, gap in enumerate(gaps):
        now += gap
        if index == len(gaps) // 2:
            disk.set_timeout(now, second_timeout)
        disk.submit(now, 1)
    end = now + 50.0
    disk.finalize(end)
    total = disk.energy.total_joules(spec)
    lower = spec.mode_power_watts["standby"] * end
    upper = (
        spec.mode_power_watts["active"] * (end + spec.transition_time_s)
        + disk.energy.spin_down_cycles * spec.transition_energy_joules
    )
    assert lower - 1e-6 <= total <= upper + 1e-6


@given(gaps=arrival_gaps)
@settings(max_examples=50, deadline=None)
def test_always_on_never_spins_down(gaps):
    _, disk = make_disk()
    now = 0.0
    for gap in gaps:
        now += gap
        result = disk.submit(now, 1)
        assert result.wake_delay_s == 0.0
    disk.finalize(now + 1000.0)
    assert disk.energy.spin_down_cycles == 0
    assert disk.energy.standby_s == 0.0


def _drive_state(disk):
    return (
        disk._now,
        disk._busy_until,
        disk._spun_down,
        disk._spin_down_start,
        disk._pending_wake,
        vars(disk.energy).copy(),
        list(disk.events),
    )


@given(gaps=arrival_gaps, timeout=timeouts, spun_down=st.booleans())
@settings(max_examples=100, deadline=None)
def test_submit_until_wake_matches_submit_loop(gaps, timeout, spun_down):
    # Served requests match one submit each, bit for bit; the first
    # request that would wake the disk is left for a submit of its own,
    # after which the two drives agree again.
    spec = DiskSpec()
    batched, reference = (
        SimDisk(spec, ServiceModel(spec, page_bytes=4 * KB), events=DiskEventLog())
        for _ in range(2)
    )
    for disk in (batched, reference):
        disk.set_timeout(0.0, timeout)
        if spun_down:
            disk.set_timeout(0.0, 0.0)
            disk.advance(1.0)
            disk.set_timeout(1.0, timeout)
    times, now = [], 1.0
    for gap in gaps:
        now += gap
        times.append(now)
    services = [batched.service.service_time(1)] * len(times)
    latencies, wake_delays = batched.submit_until_wake(times, services)
    served = len(latencies)
    for now, latency, wake_delay in zip(times, latencies, wake_delays):
        result = reference.submit(now, 1)
        assert (result.latency_s, result.wake_delay_s) == (latency, wake_delay)
    if served < len(times):
        woke = reference.submit(times[served], 1)
        assert woke.wake_delay_s > 0.0
        batched.submit(times[served], 1)
    assert _drive_state(batched) == _drive_state(reference)
