"""Memory systems: the disk cache plus a memory power policy.

A memory system owns the resident-page LRU cache and accounts memory
energy under one of the paper's memory power-management schemes.  The
engine drives it with one call per disk-cache access and learns whether
the access hit memory or must go to disk.

Dynamic energy is charged for every access (hit or miss -- a missed page
is written into memory when it arrives), using the per-access energy
derived from the chip's peak power and bandwidth (paper Section III).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.cache.lru import LRUCache
from repro.config.memory_spec import MemorySpec
from repro.errors import SimulationError
from repro.memory.energy import MemoryEnergy


def _static_terms(now, start, boundary, nap_w: float, idle_w: float):
    """Each row's (nap, idle) static charge, as the per-bank accruals add.

    Row ``i`` accrues a bank from ``start[i]`` to ``now[i]``: it naps at
    ``nap_w`` until ``boundary[i]`` and draws ``idle_w`` beyond it.  The
    scalar accruals add a charge exactly when its duration is positive
    -- the nap stretch ``min(now, boundary) - start`` and the idle
    stretch ``now - max(boundary, start)`` -- so clamping both durations
    at 0.0 gives their float64 values, and 0.0 where they add nothing.
    """
    terms = np.empty((start.size, 2))
    np.subtract(np.minimum(now, boundary), start, out=terms[:, 0])
    np.subtract(now, np.maximum(boundary, start), out=terms[:, 1])
    np.maximum(terms, 0.0, out=terms)
    terms *= (nap_w, idle_w)
    return terms


def _fold_static(energy: MemoryEnergy, ledger) -> None:
    """Add the ledger's charges to ``static_j`` one by one, row-major.

    ``np.add.accumulate`` adds sequentially, so the total rounds exactly
    as the scalar ``+=`` chain does (``np.sum`` sums pairwise and would
    not); the ledger's 0.0 entries add nothing.
    """
    flat = ledger.ravel()
    if flat.size:
        flat[0] += energy.static_j
        energy.static_j = float(np.add.accumulate(flat, out=flat)[-1])


class MemorySystem:
    """Base class: capacity bookkeeping, cache and energy buckets."""

    #: Whether :meth:`resize` is supported (the joint manager requires it).
    resizable = False

    #: Whether the vectorized replay kernels may drive this system from a
    #: stack-distance profile alone.  Requires that (a) cache behaviour is
    #: plain LRU over a fixed capacity -- so hit/miss is decided by the
    #: profile -- and (b) :meth:`charge_page_access` /
    #: :meth:`charge_hit_run` reproduce :meth:`access`'s energy accounting
    #: exactly, minus the cache maintenance.  Deliberately *not* inherited
    #: (checked on the concrete class): a subclass must opt in explicitly.
    profiled_replay = False

    def __init__(self, spec: MemorySpec, capacity_bytes: int) -> None:
        if capacity_bytes < 0 or capacity_bytes > spec.installed_bytes:
            raise SimulationError(
                f"capacity {capacity_bytes} outside [0, {spec.installed_bytes}]"
            )
        if capacity_bytes % spec.bank_bytes:
            raise SimulationError("capacity must be a whole number of banks")
        self.spec = spec
        self.energy = MemoryEnergy()
        self._capacity_bytes = capacity_bytes
        self.cache = LRUCache(capacity_bytes // spec.page_bytes)
        self._clock = 0.0
        #: Resident pages with modifications not yet on disk.
        self._dirty: Set[int] = set()
        #: Dirty pages pushed out (evicted/invalidated) awaiting writeback.
        self._pending_flush: List[int] = []

    # --- shared bookkeeping ---------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Bytes of memory currently enabled for the disk cache."""
        return self._capacity_bytes

    @property
    def capacity_pages(self) -> int:
        return self._capacity_bytes // self.spec.page_bytes

    @property
    def enabled_banks(self) -> int:
        return self._capacity_bytes // self.spec.bank_bytes

    def _advance_clock(self, now: float) -> None:
        if now < self._clock - 1e-9:
            raise SimulationError(
                f"memory time went backwards: {now} < {self._clock}"
            )
        self._clock = max(self._clock, now)

    def _charge_access(self) -> None:
        self.energy.add_access(self.spec.dynamic_energy_per_access)

    def charge_accesses(self, now: float, count: int) -> None:
        """Account ``count`` accesses ending at ``now``, cache untouched.

        The vectorized replay kernels (:mod:`repro.sim.kernels`) resolve
        hit/miss outcomes ahead of time from a stack-distance profile, so
        they only need the clock advanced and the dynamic energy charged
        -- the LRU structure itself is never consulted.  Only meaningful
        for memory systems whose energy does not depend on individual
        access placement (the nap model); the kernels' eligibility check
        enforces that.
        """
        self._advance_clock(now)
        self.energy.add_accesses(count, self.spec.dynamic_energy_per_access)

    def charge_page_access(self, now: float, page: int) -> None:
        """Account one access to ``page`` at ``now``, cache untouched.

        The per-access twin of :meth:`charge_accesses` for kernels that
        already know the outcome but must still attribute the access to
        its bank (the power-down model).  The base implementation is
        placement-free.
        """
        del page
        self.charge_accesses(now, 1)

    def charge_hit_run(self, times, pages, lo: int, hi: int) -> None:
        """Account the accesses ``times[lo:hi]`` / ``pages[lo:hi]``.

        Must charge exactly what ``hi - lo`` consecutive :meth:`access`
        hits would have charged, in the same floating-point order, while
        leaving the LRU structure alone.  Memory energy accounting is
        hit/miss-agnostic -- a miss charges the same dynamic energy (the
        fetched page is written into memory) and moves the same bank
        idle clocks as a hit on the same page at the same time -- so the
        replay kernels charge a whole span, misses included, in one
        call.  The base implementation charges the run as one batch at
        the run's final timestamp.
        """
        del pages
        self.charge_accesses(float(times[hi - 1]), hi - lo)

    def consume_hit_run_rw(self, times, pages, writes, lo: int, hi: int) -> None:
        """Account a hit run of a write-carrying trace, keeping the LRU live.

        Exactly what ``hi - lo`` consecutive :meth:`access_rw` hits would
        have done: the energy of :meth:`charge_hit_run`, every page's
        recency refreshed in order, and the write hits' pages marked
        dirty.  Hits never evict, so no dirty page can spill to the
        flush queue mid-run, and ``flush_all`` sorts its sweep, so
        batching the dirty marks into one set update is order-exact.
        Only valid when every access in the run is a hit on the live
        cache (:meth:`LRUCache.touch_run` raises otherwise).
        """
        self.charge_hit_run(times, pages, lo, hi)
        run_pages = pages[lo:hi]
        self.cache.touch_run(run_pages.tolist())
        flags = writes[lo:hi]
        if flags.any():
            self._dirty.update(run_pages[flags].tolist())

    # --- interface ----------------------------------------------------------------

    def access(self, now: float, page: int) -> bool:
        """Serve one disk-cache access; True = memory hit, False = disk miss.

        On a miss the page is loaded into the cache (the engine charges
        the disk separately).
        """
        raise NotImplementedError

    def resize(self, now: float, capacity_bytes: int) -> List[int]:
        """Change the enabled memory size; return evicted pages."""
        raise SimulationError(f"{type(self).__name__} does not support resizing")

    def finalize(self, now: float) -> None:
        """Account static energy up to ``now`` (end of simulation/period)."""
        raise NotImplementedError

    def checkpoint(self, now: float) -> None:
        """Bring static accounting up to ``now`` without ending the run.

        All finalizers in this module are pure accruals, so a checkpoint
        is the same operation; the alias documents the intent at call
        sites (e.g. warm-up boundaries).
        """
        self.finalize(now)

    # --- write-back support -----------------------------------------------------

    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    def access_rw(self, now: float, page: int, is_write: bool) -> bool:
        """Read/write-aware access (write-back, write-allocate).

        A write dirties its page; if the page cannot be cached (zero
        capacity) the write goes straight to the flush queue.  A page
        evicted to make room carries its dirty state into the flush
        queue.  Returns hit/miss like :meth:`access`; note a *write*
        miss allocates without reading the disk -- the engine must not
        issue a read for it.
        """
        self.cache.last_evicted = None
        hit = self.access(now, page)
        evicted = self.cache.last_evicted
        if evicted is not None and evicted in self._dirty:
            self._dirty.discard(evicted)
            self._pending_flush.append(evicted)
        if is_write:
            if self.cache.peek(page):
                self._dirty.add(page)
            else:
                self._pending_flush.append(page)
        return hit

    def take_pending_flushes(self) -> List[int]:
        """Dirty pages forced out since the last call (must be written)."""
        pending, self._pending_flush = self._pending_flush, []
        return pending

    def flush_all(self) -> List[int]:
        """Write-back every dirty page (the periodic flusher's sweep)."""
        dirty = sorted(self._dirty)
        self._dirty.clear()
        return dirty

    def _spill_dirty(self, pages) -> None:
        """Move evicted/invalidated pages' dirty state to the flush queue."""
        for page in pages:
            if page in self._dirty:
                self._dirty.discard(page)
                self._pending_flush.append(page)

    def prefill(self, pages: Iterable[int]) -> int:
        """Warm-start the cache at t=0 with already-resident pages.

        Emulates the long-running server the paper traces: the pages are
        inserted in the given order (last = most recently used) with no
        energy or latency charged.  When the list exceeds the free space,
        the *tail* (the hottest pages, by the warm-start ordering) is
        kept, exactly what an LRU cache would have retained.  Returns how
        many pages were placed.
        """
        pages = list(pages)
        room = self.cache.capacity_pages - len(self.cache)
        if room <= 0:
            return 0
        selected = pages[-room:] if len(pages) > room else pages
        fresh = [page for page in dict.fromkeys(selected) if not self.cache.peek(page)]
        self.cache.refresh_run(fresh, ())
        self._register_prefill(fresh)
        return len(fresh)

    def _register_prefill(self, pages: List[int]) -> None:
        """Hook for subclasses that track where prefilled pages sit."""
        del pages


class NapMemorySystem(MemorySystem):
    """Enabled banks always in nap between accesses (always-on, FM, joint).

    Static power is simply ``nap power x enabled banks``; disabled banks
    consume nothing.  This is the memory model behind the always-on
    baseline, the fixed-size (FM) methods and the joint method, which
    resizes it at period boundaries.
    """

    resizable = True
    profiled_replay = True

    def __init__(self, spec: MemorySpec, capacity_bytes: int) -> None:
        super().__init__(spec, capacity_bytes)
        self._accounted_until = 0.0

    def _accrue(self, now: float) -> None:
        duration = now - self._accounted_until
        if duration < 0:
            raise SimulationError("static accounting went backwards")
        power = self.spec.bank_power("nap") * self.enabled_banks
        self.energy.add_static(power, duration)
        self._accounted_until = now

    def access(self, now: float, page: int) -> bool:
        self._advance_clock(now)
        self._charge_access()
        return self.cache.access(page)

    def resize(self, now: float, capacity_bytes: int) -> List[int]:
        if capacity_bytes < 0 or capacity_bytes > self.spec.installed_bytes:
            raise SimulationError("capacity outside installed memory")
        if capacity_bytes % self.spec.bank_bytes:
            raise SimulationError("capacity must be a whole number of banks")
        self._advance_clock(now)
        self._accrue(now)
        self._capacity_bytes = capacity_bytes
        evicted = self.cache.resize(capacity_bytes // self.spec.page_bytes)
        self._spill_dirty(evicted)
        return evicted

    def finalize(self, now: float) -> None:
        self._advance_clock(now)
        self._accrue(now)


class PowerDownMemorySystem(MemorySystem):
    """The PD policy: banks power down after a 2-competitive timeout.

    Data are retained, so cache behaviour is identical to
    :class:`NapMemorySystem`; only the energy differs.  Each bank spends
    ``min(gap, timeout)`` of every inter-access gap in nap and the rest in
    power-down; waking charges the transition at the chip's peak power
    (the paper's estimate, Section V-A).

    Pages map to banks statically (``page mod num_banks``); since data
    survive power-down, the mapping affects only how accesses refresh
    bank idle clocks, and a uniform spread matches a physically
    interleaved layout.

    Because data survive power-down, cache behaviour is exactly the
    fixed-capacity LRU the stack-distance profile models, so the
    vectorized kernels can replay PD runs -- the batch charge methods
    below compute :meth:`access`'s per-bank charges as arrays (identical
    floating-point operations, folded into the ledgers in identical
    order), skipping only the LRU maintenance.
    """

    profiled_replay = True

    def __init__(
        self,
        spec: MemorySpec,
        capacity_bytes: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        super().__init__(
            spec, spec.installed_bytes if capacity_bytes is None else capacity_bytes
        )
        self.timeout_s = spec.powerdown_timeout_s if timeout_s is None else timeout_s
        if self.timeout_s < 0:
            raise SimulationError("power-down timeout must be non-negative")
        banks = max(self.enabled_banks, 1)
        self._last_access = np.zeros(banks, dtype=np.float64)
        self._accounted_until = np.zeros(banks, dtype=np.float64)
        chips_per_bank = spec.bank_bytes / spec.chip_bytes
        self._wake_energy = spec.peak_power_watts * chips_per_bank * 30e-6
        #: A bank's static power before and after its timeout.
        self._powers = (spec.bank_power("nap"), spec.bank_power("powerdown"))

    def _bank_of(self, page: int) -> int:
        return page % self._last_access.size

    def _accrue_bank(self, bank: int, now: float) -> None:
        """Charge the bank's static power from its accounting mark to ``now``.

        Within the stretch the bank naps until ``last_access + timeout``
        and sits in power-down beyond it.
        """
        start = self._accounted_until[bank]
        if now <= start:
            return
        boundary = self._last_access[bank] + self.timeout_s
        nap_power = self.spec.bank_power("nap")
        pd_power = self.spec.bank_power("powerdown")
        nap_end = min(now, boundary)
        if nap_end > start:
            self.energy.add_static(nap_power, nap_end - start)
        if now > boundary:
            self.energy.add_static(pd_power, now - max(boundary, start))
        self._accounted_until[bank] = now

    def access(self, now: float, page: int) -> bool:
        self.charge_page_access(now, page)
        return self.cache.access(page)

    def charge_page_access(self, now: float, page: int) -> None:
        self._advance_clock(now)
        self._charge_access()
        bank = self._bank_of(page)
        self._accrue_bank(bank, now)
        if now > self._last_access[bank] + self.timeout_s:
            # The bank had powered down and must wake to serve this access.
            self.energy.add_transition(self._wake_energy)
        self._last_access[bank] = now

    def charge_hit_run(self, times, pages, lo: int, hi: int) -> None:
        # Dynamic energy is a recomputed product (count x per-access
        # energy), so charging it in one batch is exact.  The per-bank
        # static/transition accounting runs as one array pass: a stable
        # argsort by bank groups each bank's accesses in time order, so
        # an access's previous idle clock is a shift within its group
        # (the group's first access takes the carried-in state), and the
        # charges fold into the ledgers in the scalar loop's order.
        self._advance_clock(float(times[hi - 1]))
        self.energy.add_accesses(hi - lo, self.spec.dynamic_energy_per_access)
        banks = pages[lo:hi] % self._last_access.size
        order = np.argsort(banks, kind="stable")
        banks = banks[order]
        now = times[lo:hi][order]
        first = np.empty(banks.size, dtype=bool)
        first[0] = True
        np.not_equal(banks[1:], banks[:-1], out=first[1:])
        previous = np.empty_like(now)
        previous[1:] = now[:-1]
        previous[first] = -np.inf
        # Times never decrease, so a later access accrues from its group
        # predecessor's time, or from a checkpoint's carried mark beyond it.
        start = np.maximum(self._accounted_until[banks], previous)
        previous[first] = self._last_access[banks[first]]
        boundary = previous + self.timeout_s
        ledger = np.empty((banks.size, 2))
        ledger[order] = _static_terms(now, start, boundary, *self._powers)
        _fold_static(self.energy, ledger)
        wakes = int(np.count_nonzero(now > boundary))
        if wakes:
            # Each wake adds the same charge, one ``+=`` at a time.
            ledger = np.full(wakes + 1, self._wake_energy)
            ledger[0] = self.energy.transition_j
            self.energy.transition_j = float(np.add.accumulate(ledger)[-1])
            self.energy.transitions += wakes
        final = np.empty_like(first)
        final[:-1] = first[1:]
        final[-1] = True
        touched = banks[final]
        self._last_access[touched] = now[final]
        self._accounted_until[touched] = np.maximum(
            self._accounted_until[touched], now[final]
        )

    def finalize(self, now: float) -> None:
        self._advance_clock(now)
        start = self._accounted_until
        boundary = self._last_access + self.timeout_s
        _fold_static(
            self.energy, _static_terms(now, start, boundary, *self._powers)
        )
        np.maximum(start, now, out=start)


def supports_profiled_replay(memory: MemorySystem) -> bool:
    """True when the replay kernels may drive ``memory`` from a profile.

    Checked on the concrete class (not inherited), so an unknown subclass
    of an eligible system conservatively falls back to the scalar loop.
    """
    return bool(type(memory).__dict__.get("profiled_replay", False))


class DisableMemorySystem(MemorySystem):
    """The DS policy: banks are disabled after their break-even timeout.

    Disabling loses the contents: later accesses to those pages miss and
    go to disk.  Bank disabling is evaluated lazily -- a bank idle longer
    than the timeout is treated as having been disabled exactly at
    ``last_access + timeout``; touching it re-enables it (the transition
    energy is negligible next to the disk energy of refetching, which the
    paper also ignores, Section V-A).

    Pages are placed in banks on load (filling the most recently used
    bank first) so invalidation drops exactly the pages the bank held.

    Between two *disable events* -- an access or a placement that finds
    its bank past the deadline, and a load into a full cache -- the cache
    is a growing LRU (capacity changes only at the events, as in paging
    with dynamic memory capacity), so :meth:`consume_hit_run` replays
    each such stretch as one numpy batch.
    """

    #: The first window :meth:`consume_hit_run` scans for an event; each
    #: window without one doubles the next, up to :data:`_MAX_WINDOW`.
    _FIRST_WINDOW = 1024
    _MAX_WINDOW = 1 << 16

    def __init__(
        self,
        spec: MemorySpec,
        capacity_bytes: Optional[int] = None,
        timeout_s: Optional[float] = None,
        disk_refetch_energy_j: float = 7.7,
    ) -> None:
        super().__init__(
            spec, spec.installed_bytes if capacity_bytes is None else capacity_bytes
        )
        if timeout_s is None:
            # Break-even to disable: refetch energy over nap power
            # (paper: 7.7 J / 10.5 mW = 732 s for a 16-MB bank).  Both the
            # refetch energy and the nap power scale with the bank size,
            # so the timeout itself is bank-size invariant.
            chips_per_bank = spec.bank_bytes / spec.chip_bytes
            refetch = disk_refetch_energy_j * chips_per_bank
            timeout_s = refetch / spec.bank_power("nap")
        if timeout_s <= 0:
            raise SimulationError("disable timeout must be positive")
        self.timeout_s = timeout_s
        banks = max(self.enabled_banks, 1)
        self._last_access = np.zeros(banks, dtype=np.float64)
        self._accounted_until = np.zeros(banks, dtype=np.float64)
        # The narrowest dtype holding a bank index: numpy's stable sort
        # radix-sorts integers of 16 bits or fewer.
        self._bank_dtype = np.min_scalar_type(banks - 1)
        #: A bank's static power before and after its deadline: a
        #: disabled bank draws nothing.
        self._powers = (spec.bank_power("nap"), 0.0)
        self._bank_pages: List[Set[int]] = [set() for _ in range(banks)]
        self._page_bank: Dict[int, int] = {}
        self._fill_bank = 0
        #: Disk accesses caused purely by bank disabling (for diagnostics).
        self.invalidation_misses = 0
        self.banks_disabled = 0

    # --- bank bookkeeping -------------------------------------------------------

    def _disable_time(self, bank: int) -> float:
        return float(self._last_access[bank]) + self.timeout_s

    def _accrue_bank(self, bank: int, now: float) -> None:
        """Charge nap power from the last accounting point up to ``now``,
        stopping at the bank's (lazy) disable time."""
        start = float(self._accounted_until[bank])
        end = min(now, self._disable_time(bank))
        if end > start:
            self.energy.add_static(self.spec.bank_power("nap"), end - start)
        self._accounted_until[bank] = max(now, start)

    def _is_disabled(self, bank: int, now: float) -> bool:
        return now > self._disable_time(bank)

    def _invalidate_bank(self, bank: int) -> None:
        pages = self._bank_pages[bank]
        if pages:
            self.cache.invalidate(pages)
            self._spill_dirty(pages)
            for page in pages:
                self._page_bank.pop(page, None)
            pages.clear()
        self.banks_disabled += 1

    def _fill_slots(self, count: int) -> List[int]:
        """The banks of the next ``count`` loads, none evicting.

        Each load takes the fill bank until it is full, then the first
        bank after it with room.  Without evictions or invalidations no
        bank regains room, so the loads fill the banks' free frames in
        that cyclic order.
        """
        banks = len(self._bank_pages)
        per_bank = self.spec.pages_per_bank
        slots: List[int] = []
        for probe in range(banks):
            bank = (self._fill_bank + probe) % banks
            room = per_bank - len(self._bank_pages[bank])
            if room > 0:
                slots.extend([bank] * min(room, count - len(slots)))
                if len(slots) == count:
                    return slots
        raise SimulationError("no bank has a free frame despite cache room")

    def _free_bank(self) -> int:
        """The bank the next loaded page goes to: the fill bank, or the
        first bank after it with room."""
        return self._fill_slots(1)[0]

    def _place_pages(self, pages: List[int], banks: List[int]) -> None:
        """Record freshly loaded ``pages`` in ``banks``, in load order."""
        self._page_bank.update(zip(pages, banks))
        bank_pages = self._bank_pages
        for page, bank in zip(pages, banks):
            bank_pages[bank].add(page)
        self._fill_bank = banks[-1]

    def _evict_bookkeeping(self, evicted: List[int]) -> None:
        for page in evicted:
            bank = self._page_bank.pop(page, None)
            if bank is not None:
                self._bank_pages[bank].discard(page)

    def _register_prefill(self, pages: List[int]) -> None:
        if pages:
            self._place_pages(pages, self._fill_slots(len(pages)))

    # --- interface ------------------------------------------------------------------

    def access(self, now: float, page: int) -> bool:
        self._advance_clock(now)
        self._charge_access()
        bank = self._page_bank.get(page)
        if bank is not None and self._is_disabled(bank, now):
            # The bank was disabled while this page sat in it: the data
            # are gone, so this access is really a miss.
            self._accrue_bank(bank, now)
            self._invalidate_bank(bank)
            self._last_access[bank] = now
            self._accounted_until[bank] = now
            self.invalidation_misses += 1
            self._load(now, page)
            return False
        if self.cache.peek(page):
            if bank is None:
                raise SimulationError("resident page has no bank assignment")
            self._accrue_bank(bank, now)
            self._last_access[bank] = now
            self.cache.access(page)
            return True
        self._load(now, page)
        return False

    def consume_hit_run(self, times, pages, lo: int, hi: int):
        """Replay ``[lo, hi)`` up to its first disable event.

        Returns ``(stop, misses)``: the accesses ``[lo, stop)`` are
        accounted exactly as :meth:`access` would have, and ``misses``
        holds the indices of those that missed, in order.  ``stop`` is
        ``hi`` or the index of the first access that :meth:`access` must
        serve itself -- one that finds its bank past the disable
        deadline (a touch of a disabled bank, or a load placed into one)
        or a load into a full cache (an eviction).

        The accesses are scanned in windows that double in size, each
        replayed as one batch by :meth:`_replay_batch`; the caller
        replays the event access and calls again, which restarts at the
        smallest window.  Bank invalidations shrink the true reuse
        depths, so no stack-distance profile classifies these accesses:
        the residency oracle is the live ``_page_bank`` map.
        """
        misses = []
        window = self._FIRST_WINDOW
        pos = lo
        while pos < hi:
            end = min(pos + window, hi)
            window = min(window * 2, self._MAX_WINDOW)
            stop, batch_misses = self._replay_batch(times, pages, pos, end)
            misses.append(batch_misses)
            pos = stop
            if stop < end:
                break
        return pos, np.concatenate(misses)

    def _replay_batch(self, times, pages, lo: int, hi: int):
        """Replay ``[lo, hi)`` up to its first event in one batch.

        Residency only grows before the event, so an access misses
        exactly when its page was not resident at ``lo`` and this is its
        first use, and the misses take the fill-order frames of
        :meth:`_fill_slots`.  That fixes every access's bank; one stable
        argsort by bank then lines up each bank's accesses in time order,
        so an access's bank gap is the distance to its group predecessor
        (the group's first access takes the bank's carried-in last
        access), and the first gap past the timeout is the event.  Every
        access before it naps its bank from the bank's accounting mark,
        as :meth:`_accrue_bank` charges a hit or a load: those charges
        fold into ``static_j`` in time order.
        """
        n = hi - lo
        window = pages[lo:hi]
        # Distinct pages with their first and last uses, from one stable
        # sort (radix on a narrow dtype): a page's uses run in time order.
        by_page = window.astype(np.min_scalar_type(int(window.max()))).argsort(
            kind="stable"
        )
        sorted_pages = window[by_page]
        opens = np.empty(n, dtype=bool)
        opens[0] = True
        np.not_equal(sorted_pages[1:], sorted_pages[:-1], out=opens[1:])
        group_starts = np.flatnonzero(opens)
        distinct = sorted_pages[group_starts]
        first_use = by_page[group_starts]
        bank_of = np.fromiter(
            map(self._page_bank.get, distinct.tolist(), repeat(-1)),
            dtype=np.int64,
            count=distinct.size,
        )
        loads = np.flatnonzero(bank_of < 0)
        loads = loads[first_use[loads].argsort()]
        cut = n
        room = self.cache.capacity_pages - len(self.cache)
        if loads.size > room:
            cut = int(first_use[loads[room]])  # this load would evict
            loads = loads[:room]
        if loads.size:
            bank_of[loads] = self._fill_slots(int(loads.size))
        # Accesses at or past an eviction cut may be unplaced: unread.
        group = np.cumsum(opens)
        group -= 1
        banks = np.empty(n, dtype=self._bank_dtype)
        banks[by_page] = bank_of.astype(self._bank_dtype)[group]

        order = banks[:cut].argsort(kind="stable")
        grouped = banks[order]
        now = times[lo : lo + cut]
        grouped_now = now[order]
        first = np.empty(cut, dtype=bool)
        first[:1] = True
        np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
        # Each access's predecessor in its bank gives its accrual start
        # and its bank's disable deadline.
        previous = np.empty(cut)
        previous[1:] = grouped_now[:-1]
        previous[first] = -np.inf
        start = np.maximum(self._accounted_until[grouped], previous)
        previous[first] = self._last_access[grouped[first]]
        deadline = previous + self.timeout_s
        late = np.flatnonzero(grouped_now > deadline)
        reopened = 0
        if late.size:
            # A late first access to a bank that was empty at ``lo`` loads
            # into it: the invalidation it triggers drops nothing, so it
            # only counts the disable.  Any other late access is the event.
            bank_pages = self._bank_pages
            silent = first[late] & np.array(
                [not bank_pages[bank] for bank in grouped[late].tolist()], dtype=bool
            )
            late = order[late]
            if not silent.all():
                cut = int(late[~silent].min())
            reopened = int(np.count_nonzero(late[silent] < cut))
        terms = _static_terms(grouped_now, start, deadline, *self._powers)
        if cut < order.size:
            keep = order < cut
            order, grouped, first = order[keep], grouped[keep], first[keep]
            grouped_now, terms = grouped_now[keep], terms[keep]
            loads = loads[first_use[loads] < cut]
        misses = first_use[loads] + lo  # loads run in first-use order
        if cut == 0:
            return lo, misses

        self.banks_disabled += reopened
        self._advance_clock(float(now[cut - 1]))
        self.energy.add_accesses(cut, self.spec.dynamic_energy_per_access)
        ledger = np.empty_like(terms)
        ledger[order] = terms
        _fold_static(self.energy, ledger)
        final = np.empty(cut, dtype=bool)
        final[:-1] = first[1:]
        final[-1] = True
        touched = grouped[final]
        last_use = grouped_now[final]
        self._last_access[touched] = last_use
        self._accounted_until[touched] = np.maximum(
            self._accounted_until[touched], last_use
        )

        loaded = distinct[loads].tolist()
        if loaded:
            self._place_pages(loaded, bank_of[loads].tolist())
        # Each page's last use before the cut is the last of its group's
        # entries below the cut (a group lists its uses in time order).
        used = by_page < cut
        last = used.copy()
        last[:-1] &= opens[1:] | ~used[1:]
        is_last = np.zeros(cut, dtype=bool)
        is_last[by_page[last]] = True
        self.cache.refresh_run(loaded, window[:cut][is_last].tolist())
        return lo + cut, misses

    def _load(self, now: float, page: int) -> None:
        evicted = self.cache.load(page)
        if evicted is not None:
            self._evict_bookkeeping([evicted])
        if not self.cache.peek(page):
            # Zero-capacity cache: nothing to place.
            return
        bank = self._free_bank()
        if self._is_disabled(bank, now):
            # The bank switched off while idle: the pages it held are
            # gone before this one moves in.
            self._invalidate_bank(bank)
        self._place_pages([page], [bank])
        self._accrue_bank(bank, now)
        self._last_access[bank] = now
        self._accounted_until[bank] = max(float(self._accounted_until[bank]), now)

    def finalize(self, now: float) -> None:
        self._advance_clock(now)
        start = self._accounted_until
        boundary = self._last_access + self.timeout_s
        _fold_static(
            self.energy, _static_terms(now, start, boundary, *self._powers)
        )
        np.maximum(start, now, out=start)
