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

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.cache.lru import LRUCache
from repro.config.memory_spec import MemorySpec
from repro.errors import SimulationError
from repro.memory.energy import MemoryEnergy


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
        placed = 0
        for page in selected:
            if not self.cache.peek(page):
                self.cache.load(page)
                self._register_prefill(page)
                placed += 1
        return placed

    def _register_prefill(self, page: int) -> None:
        """Hook for subclasses that track page placement."""
        del page


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
        ledger[order] = self._static_terms(now, start, boundary)
        self._fold_static(ledger)
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

    def _static_terms(self, now, start, boundary):
        """Each row's (nap, power-down) charge, as :meth:`_accrue_bank` adds.

        Row ``i`` accrues from ``start[i]`` to ``now[i]`` with the bank
        powering down at ``boundary[i]``.  :meth:`_accrue_bank` adds a
        charge exactly when its duration is positive -- the nap stretch
        ``min(now, boundary) - start`` and the power-down stretch
        ``now - max(boundary, start)`` -- so clamping both durations at
        0.0 gives its float64 values, and 0.0 where it adds nothing.
        """
        terms = np.empty((start.size, 2))
        np.subtract(np.minimum(now, boundary), start, out=terms[:, 0])
        np.subtract(now, np.maximum(boundary, start), out=terms[:, 1])
        np.maximum(terms, 0.0, out=terms)
        terms *= (self.spec.bank_power("nap"), self.spec.bank_power("powerdown"))
        return terms

    def _fold_static(self, ledger) -> None:
        """Add the ledger's charges to ``static_j`` one by one, row-major.

        ``np.add.accumulate`` adds sequentially, so the total rounds
        exactly as the scalar ``+=`` chain does (``np.sum`` sums pairwise
        and would not); the ledger's 0.0 entries add nothing.
        """
        flat = ledger.ravel()
        flat[0] += self.energy.static_j
        self.energy.static_j = float(np.add.accumulate(flat, out=flat)[-1])

    def finalize(self, now: float) -> None:
        self._advance_clock(now)
        start = self._accounted_until
        self._fold_static(
            self._static_terms(now, start, self._last_access + self.timeout_s)
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
    """

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
        # Plain float lists: every use is one scalar index, where list
        # access and float arithmetic beat numpy scalars (same IEEE math).
        self._last_access = [0.0] * banks
        self._accounted_until = [0.0] * banks
        self._bank_pages: List[Set[int]] = [set() for _ in range(banks)]
        self._page_bank: Dict[int, int] = {}
        self._fill_bank = 0
        #: Disk accesses caused purely by bank disabling (for diagnostics).
        self.invalidation_misses = 0
        self.banks_disabled = 0

    # --- bank bookkeeping -------------------------------------------------------

    def _disable_time(self, bank: int) -> float:
        return self._last_access[bank] + self.timeout_s

    def _accrue_bank(self, bank: int, now: float) -> None:
        """Charge nap power from the last accounting point up to ``now``,
        stopping at the bank's (lazy) disable time."""
        start = self._accounted_until[bank]
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

    def _place_page(self, page: int) -> None:
        """Record the freshly loaded page in a bank with room."""
        banks = len(self._last_access)
        per_bank = self.spec.pages_per_bank
        for probe in range(banks):
            bank = (self._fill_bank + probe) % banks
            if len(self._bank_pages[bank]) < per_bank:
                self._bank_pages[bank].add(page)
                self._page_bank[page] = bank
                self._fill_bank = bank
                return
        raise SimulationError("no bank has a free frame despite cache room")

    def _evict_bookkeeping(self, evicted: List[int]) -> None:
        for page in evicted:
            bank = self._page_bank.pop(page, None)
            if bank is not None:
                self._bank_pages[bank].discard(page)

    def _register_prefill(self, page: int) -> None:
        self._place_page(page)

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

    def consume_hit_run(self, times, pages, lo: int, hi: int) -> int:
        """Consume the longest pure-hit prefix of ``[lo, hi)``; return its end.

        A *pure hit* touches a resident page whose bank has not passed
        its lazy disable deadline: :meth:`access` would charge dynamic
        energy, accrue the bank's nap power up to ``now``, refresh the
        bank's idle clock and the page's recency, and return True --
        nothing else.  This scans accesses in order, performing exactly
        those operations (the accrual inlined with the identical
        floating-point sequence), and stops at the first access that
        would miss, invalidate a disabled bank, or resurrect one; the
        caller replays that access through the live :meth:`access`.

        The stack-distance profile cannot classify these runs -- bank
        invalidations shrink the true reuse depths -- so the residency
        oracle here is the live ``_page_bank`` map itself.
        """
        pb_get = self._page_bank.get
        last = self._last_access
        acc = self._accounted_until
        timeout = self.timeout_s
        nap_power = self.spec.bank_power("nap")
        energy = self.energy
        static = energy.static_j
        move = self.cache._pages.move_to_end
        pos = lo
        stopped = False
        # Convert to Python scalars in geometrically growing blocks: the
        # run usually ends after a handful of hits (miss-heavy spans), so
        # a whole-tail -- or even fixed-large-block -- tolist() per call
        # pays for thousands of elements the loop never reads.  Doubling
        # keeps the conversion within 4x of the consumed prefix while
        # still amortizing long runs.
        block = 32
        while pos < hi and not stopped:
            stop = min(pos + block, hi)
            block = min(block * 2, 1 << 16)
            for now, page in zip(
                times[pos:stop].tolist(), pages[pos:stop].tolist()
            ):
                bank = pb_get(page)
                if bank is None or now > last[bank] + timeout:
                    stopped = True
                    break
                # _accrue_bank inlined: the disable deadline is >= now
                # here, so the nap stretch ends at now.
                start = acc[bank]
                if now > start:
                    static += nap_power * (now - start)
                    acc[bank] = now
                last[bank] = now
                move(page)
                pos += 1
        energy.static_j = static
        count = pos - lo
        if count:
            self.cache.last_evicted = None
            self._advance_clock(float(times[pos - 1]))
            energy.add_accesses(count, self.spec.dynamic_energy_per_access)
        return pos

    def _load(self, now: float, page: int) -> None:
        evicted = self.cache.load(page)
        if evicted is not None:
            self._evict_bookkeeping([evicted])
        if not self.cache.peek(page):
            # Zero-capacity cache: nothing to place.
            return
        self._place_page(page)
        bank = self._page_bank[page]
        self._accrue_bank(bank, now)
        self._last_access[bank] = now
        self._accounted_until[bank] = max(self._accounted_until[bank], now)

    def finalize(self, now: float) -> None:
        self._advance_clock(now)
        for bank in range(len(self._last_access)):
            self._accrue_bank(bank, now)
