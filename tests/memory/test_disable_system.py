"""DisableMemorySystem: the DS policy loses data after its timeout."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.memory_spec import MemorySpec
from repro.memory.system import DisableMemorySystem
from repro.units import KB
from tests.memory.schedules import (
    assert_same_energy,
    checkpoint_time,
    schedules,
)


@pytest.fixture()
def spec():
    # 2 banks x 4 pages.
    return MemorySpec(
        installed_bytes=32 * KB,
        bank_bytes=16 * KB,
        chip_bytes=16 * KB,
        page_bytes=4 * KB,
    )


class TestDataLoss:
    def test_break_even_timeout_matches_paper(self):
        # 7.7 J / 10.5 mW = 732 s (paper Section V-A).
        spec = MemorySpec()
        system = DisableMemorySystem(spec)
        assert system.timeout_s == pytest.approx(732.0, rel=0.01)

    def test_idle_bank_loses_data(self, spec):
        system = DisableMemorySystem(spec, timeout_s=100.0)
        assert system.access(0.0, 0) is False  # load into bank 0
        assert system.access(1.0, 0) is True  # still resident
        # Idle well past the timeout: the bank was disabled, data gone.
        assert system.access(500.0, 0) is False
        assert system.invalidation_misses == 1
        assert system.banks_disabled >= 1

    def test_touching_keeps_bank_alive(self, spec):
        system = DisableMemorySystem(spec, timeout_s=100.0)
        system.access(0.0, 0)
        for t in (50.0, 100.0, 150.0, 200.0):
            assert system.access(t, 0) is True

    def test_bank_invalidation_drops_all_its_pages(self, spec):
        system = DisableMemorySystem(spec, timeout_s=100.0)
        # Fill bank 0 (4 pages land together via fill-bank placement).
        for page in range(4):
            system.access(0.0, page)
        # Much later: the first access misses and drops the whole bank.
        assert system.access(500.0, 0) is False
        # Page 1 was in the same bank: also gone (needs a reload) --
        # unless it landed in the fresh bank the reload re-opened.
        assert system.access(500.1, 1) is False

    def test_energy_stops_at_disable_time(self, spec):
        system = DisableMemorySystem(spec, timeout_s=100.0)
        system.finalize(1000.0)
        # Both banks nap for 100 s then go dark.
        nap = spec.mode_power_watts["nap"]
        assert system.energy.static_j == pytest.approx(2 * nap * 100.0)

    def test_energy_below_nap_baseline(self, spec):
        from repro.memory.system import NapMemorySystem

        ds = DisableMemorySystem(spec, timeout_s=100.0)
        nap = NapMemorySystem(spec, spec.installed_bytes)
        ds.finalize(10_000.0)
        nap.finalize(10_000.0)
        assert ds.energy.static_j < nap.energy.static_j


class TestPlacement:
    def test_eviction_frees_frames(self, spec):
        system = DisableMemorySystem(spec, timeout_s=1e9)
        # Capacity 8 pages; access 10 distinct pages -> 2 evictions.
        for i in range(10):
            system.access(float(i), i)
        assert len(system.cache) == 8
        # Oldest two were evicted.
        assert system.access(20.0, 0) is False
        # Recent ones hit.
        assert system.access(21.0, 9) is True

    def test_prefill_places_pages_in_banks(self, spec):
        system = DisableMemorySystem(spec, timeout_s=1e9)
        system.prefill([1, 2, 3])
        assert system.access(0.0, 3) is True
        assert system.energy.dynamic_j == pytest.approx(
            spec.dynamic_energy_per_access
        )


class TestLazyDisablePaths:
    def test_miss_load_reenables_idle_bank_slot(self, spec):
        """A load can land in a bank that lazily disabled: the placement
        first drops the pages the bank lost, then re-enables it
        (last_access moves) for the new page alone."""
        system = DisableMemorySystem(spec, timeout_s=50.0)
        # Fill both banks (8 pages).
        for page in range(8):
            system.access(0.0, page)
        # Far later, a brand-new page loads; its frame comes from an LRU
        # eviction (page 0, bank 0), and the touched bank is alive again
        # afterwards, holding only the new page.
        assert system.access(1000.0, 99) is False
        assert system.banks_disabled == 1
        assert system.access(1000.1, 99) is True
        assert system.access(1000.2, 1) is False  # bank 0's stale page

    def test_miss_into_disabled_bank_drops_its_stale_pages(self, spec):
        """A miss placed into a bank past its disable deadline must not
        bring the bank's old pages back to life."""
        system = DisableMemorySystem(spec, timeout_s=100.0)
        assert system.access(0.0, 0) is False  # page 0 -> bank 0
        # Bank 0 was off from 100 s; page 1 still lands in it (fill order).
        assert system.access(500.0, 1) is False
        assert system.banks_disabled == 1
        assert system.access(501.0, 0) is False
        assert system.invalidation_misses == 0

    def test_energy_between_checkpoint_and_disable(self, spec):
        system = DisableMemorySystem(spec, timeout_s=100.0)
        system.checkpoint(50.0)
        mid = system.energy.static_j
        system.finalize(400.0)
        # Bank power accrues only until the 100-s disable time.
        nap = spec.bank_power("nap")
        assert mid == pytest.approx(2 * nap * 50.0)
        assert system.energy.static_j == pytest.approx(2 * nap * 100.0)

    def test_counters_track_disables(self, spec):
        system = DisableMemorySystem(spec, timeout_s=10.0)
        system.access(0.0, 0)
        system.access(100.0, 0)  # bank died at t=10
        assert system.banks_disabled >= 1
        assert system.invalidation_misses == 1

    def test_dirty_page_survives_bank_death_via_flush_queue(self, spec):
        system = DisableMemorySystem(spec, timeout_s=10.0)
        system.access_rw(0.0, 0, is_write=True)
        assert system.dirty_pages == 1
        # The bank dies; the dirty page must land in the flush queue, not
        # vanish.
        assert system.access_rw(100.0, 0, is_write=False) is False
        assert 0 in system.take_pending_flushes()
        assert system.dirty_pages <= 1  # only the re-read copy could be dirty


def replay_schedule(system, times, pages, segments, batched: bool):
    """Drive ``system`` through a schedule, as the disable kernel does.

    A batch consumes everything before its next disable event with
    ``consume_hit_run`` and serves the event access through ``access``;
    the reference (``batched=False``) serves every access through
    ``access``.  Returns the indices of the accesses that missed.
    """
    misses = []
    for lo, hi, kind, mark in segments:
        if mark is not None:
            system.checkpoint(checkpoint_time(times, lo, mark))
        pos = lo
        while pos < hi:
            if batched and kind == "batch":
                pos, batch_misses = system.consume_hit_run(times, pages, pos, hi)
                misses.extend(batch_misses.tolist())
                if pos == hi:
                    break
            if not system.access(float(times[pos]), int(pages[pos])):
                misses.append(pos)
            pos += 1
    return misses


def assert_same_state(a, b) -> None:
    assert_same_energy(a, b)
    assert a._last_access.tolist() == b._last_access.tolist()
    assert a._accounted_until.tolist() == b._accounted_until.tolist()
    assert list(a.cache._pages) == list(b.cache._pages)
    assert a._page_bank == b._page_bank
    assert a._bank_pages == b._bank_pages
    assert a._fill_bank == b._fill_bank
    assert a.invalidation_misses == b.invalidation_misses
    assert a.banks_disabled == b.banks_disabled


class TestBatchedHits:
    """``consume_hit_run``'s batches between disable events match
    ``access``: the same misses, bank state, LRU order and energy."""

    @given(
        schedule=schedules(),
        timeout=st.sampled_from([0.25, 1.0, 5.0, None]),
        window=st.sampled_from([1, 2, 5, 1024]),
        prefill=st.lists(st.integers(min_value=0, max_value=11), max_size=6),
    )
    @settings(deadline=None)
    def test_any_split_matches_access_loop(self, schedule, timeout, window, prefill):
        times, pages, segments = schedule
        spec = MemorySpec(
            installed_bytes=32 * KB,
            bank_bytes=16 * KB,
            chip_bytes=16 * KB,
            page_bytes=4 * KB,
        )
        batched = DisableMemorySystem(spec, timeout_s=timeout)
        reference = DisableMemorySystem(spec, timeout_s=timeout)
        # Small first windows make one call scan several doubling windows.
        batched._FIRST_WINDOW = window
        batched.prefill(prefill)
        for page in prefill:  # one page at a time, each to _free_bank
            if not reference.cache.peek(page):
                reference.cache.load(page)
                reference._place_pages([page], [reference._free_bank()])
        fast = replay_schedule(batched, times, pages, segments, batched=True)
        slow = replay_schedule(reference, times, pages, segments, batched=False)
        assert fast == slow
        assert_same_state(batched, reference)
        end = float(times[-1]) + 1.75
        batched.finalize(end)
        reference.finalize(end)
        assert_same_state(batched, reference)
