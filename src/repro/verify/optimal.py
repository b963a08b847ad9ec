"""Offline optimality oracles: Belady under dynamic capacity, clairvoyant disk.

The joint manager (paper Section IV) picks a memory size and a disk
timeout per period and hopes the pair lands near the best achievable
energy.  This module computes what *offline* knowledge would have done
with the same recorded schedule, so every run can report its regret:

* :func:`opt_replay` -- Belady/OPT paging under a *dynamic capacity
  schedule*: evict the page whose next use lies farthest in the future,
  re-clamping the resident set with the same rule whenever a period
  boundary shrinks the cache (Peserico, "Paging with dynamic memory
  capacity" -- the farthest-future rule stays optimal when the adversary
  controls the capacity curve).  The pass is vectorized in the same
  style as :class:`repro.cache.profile.TraceProfile`: next-use indices
  come from one ``lexsort`` and evictions go through a lazy max-heap, so
  paper-scale traces replay in O(n log n).
* :func:`naive_opt_replay` -- the obviously-correct twin: a linear
  forward scan per eviction, written independently so the differential
  check (:func:`check_optimal`, registered as ``CHECKS["optimal"]``) can
  catch bugs in either.
* :func:`offline_spin_decisions` / :func:`offline_disk_energy` -- the
  clairvoyant disk schedule over recorded idle intervals: spin down iff
  the gap exceeds the break-even time.  Must agree with
  :func:`repro.stats.competitive.offline_optimal_energy`, which is the
  independent implementation the differential check compares against.

OPT here is the classic demand-paging optimum (a missed page must be
loaded; no bypassing), which every online policy in this repo also obeys
-- so ``OPT misses <= online misses`` holds access-for-access, and the
regret reported by :mod:`repro.analysis.regret` is guaranteed
non-negative.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.disk_spec import DiskSpec
from repro.errors import SimulationError

#: An epoch of the capacity schedule: accesses ``[lo, hi)`` replay at a
#: fixed capacity of ``capacity_pages``.
Epoch = Tuple[int, int, int]


def compute_next_use(pages: np.ndarray) -> np.ndarray:
    """Index of each access's *next* access to the same page (``n`` = never).

    One stable ``lexsort`` pass, no Python loop: consecutive entries of
    the (page, index)-sorted order with equal pages are successive
    accesses of that page.
    """
    pages = np.ascontiguousarray(pages, dtype=np.int64)
    n = int(pages.size)
    out = np.full(n, n, dtype=np.int64)
    if n == 0:
        return out
    order = np.lexsort((np.arange(n), pages))
    sorted_pages = pages[order]
    same = sorted_pages[:-1] == sorted_pages[1:]
    out[order[:-1][same]] = order[1:][same]
    return out


def evict_key(next_use: int, page: int) -> Tuple[int, int]:
    """Heap key of one resident page: pop order = eviction order.

    Belady's rule: evict the page whose next use is farthest in the
    future; ties (only possible between never-again pages) break toward
    the smallest page id so the fast and naive replays stay comparable
    set-for-set.  Module-level on purpose -- the mutation tests
    monkeypatch this to plant a tie-break bug and assert
    ``CHECKS["optimal"]`` catches it.
    """
    return (-next_use, page)


@dataclass(frozen=True)
class OptReplay:
    """Outcome of one offline-optimal replay over a capacity schedule."""

    #: Per-access miss flags (True = OPT also missed).
    miss_flags: np.ndarray
    #: Total OPT misses (mandatory loads included).
    misses: int
    #: Pages resident when the replay ended.
    final_resident: frozenset

    @property
    def hits(self) -> int:
        return int(self.miss_flags.size) - self.misses


def opt_replay(
    pages: np.ndarray,
    epochs: Sequence[Epoch],
    initial_resident: Iterable[int] = (),
    next_use: Optional[np.ndarray] = None,
) -> OptReplay:
    """Belady/OPT misses of ``pages`` under the capacity schedule ``epochs``.

    ``initial_resident`` seeds the cache (the warm-start prefill of the
    online run being compared), so OPT starts from the same state and
    the ``OPT <= online`` invariant holds.  Pass a precomputed
    ``next_use`` (from :func:`compute_next_use`) to amortize it across
    capacities.
    """
    pages = np.ascontiguousarray(pages, dtype=np.int64)
    n = int(pages.size)
    if next_use is None:
        next_use = compute_next_use(pages)
    _validate_epochs(epochs, n)

    # Dense page ids (one np.unique pass) so the hot hit path is a single
    # list index; pages only in the prefill get synthetic ids past the end.
    uniq, inverse = np.unique(pages, return_inverse=True)
    inverse_list = inverse.tolist()
    next_use_list = np.asarray(next_use, dtype=np.int64).tolist()
    page_of = uniq.tolist()
    # nu_of[pid]: index of the page's next access while resident, -1 when
    # not resident.  A heap entry (key, pid, nu) is live iff
    # nu_of[pid] == nu; every access refreshes its page's entry, so the
    # live entry always carries the true next use (stale ones are always
    # nearer-future, get popped first, and fail the liveness test).
    NOT_RESIDENT = -1
    nu_of = [NOT_RESIDENT] * len(page_of)
    count = 0
    heap: List[Tuple[Tuple[int, int], int, int]] = []

    def evict() -> None:
        while heap:
            _, pid, nu = heapq.heappop(heap)
            if nu_of[pid] == nu:
                nu_of[pid] = NOT_RESIDENT
                return
        raise SimulationError("OPT replay asked to evict from an empty cache")

    if initial_resident:
        first_idx = np.full(uniq.size, n, dtype=np.int64)
        pids, firsts = np.unique(inverse, return_index=True)
        first_idx[pids] = firsts
        seen = set()
        for page in initial_resident:
            page = int(page)
            if page in seen:
                continue
            seen.add(page)
            slot = int(np.searchsorted(uniq, page))
            if slot < uniq.size and int(uniq[slot]) == page:
                pid, nu = slot, int(first_idx[slot])
            else:
                pid, nu = len(page_of), n
                page_of.append(page)
                nu_of.append(NOT_RESIDENT)
            nu_of[pid] = nu
            count += 1
            heapq.heappush(heap, (evict_key(nu, page), pid, nu))

    flags = np.zeros(n, dtype=bool)
    for lo, hi, capacity in epochs:
        while count > capacity:
            evict()
            count -= 1
        for i in range(lo, hi):
            pid = inverse_list[i]
            nu = next_use_list[i]
            if nu_of[pid] != NOT_RESIDENT:
                nu_of[pid] = nu
                heapq.heappush(heap, (evict_key(nu, page_of[pid]), pid, nu))
                continue
            flags[i] = True
            if capacity <= 0:
                continue
            if count >= capacity:
                evict()
                count -= 1
            nu_of[pid] = nu
            count += 1
            heapq.heappush(heap, (evict_key(nu, page_of[pid]), pid, nu))
    return OptReplay(
        miss_flags=flags,
        misses=int(flags.sum()),
        final_resident=frozenset(
            page_of[pid] for pid, nu in enumerate(nu_of) if nu != NOT_RESIDENT
        ),
    )


def naive_opt_replay(
    pages: np.ndarray,
    epochs: Sequence[Epoch],
    initial_resident: Iterable[int] = (),
) -> OptReplay:
    """Brute-force twin of :func:`opt_replay`: linear scans, no heap.

    Independently re-derives everything -- next uses come from a forward
    scan at each eviction, the victim from an explicit max-over-residents
    -- so a bug in the fast path's bookkeeping cannot hide here too.
    """
    pages_list = [int(p) for p in np.asarray(pages).tolist()]
    n = len(pages_list)
    _validate_epochs(epochs, n)
    resident: List[int] = []
    for page in initial_resident:
        if int(page) not in resident:
            resident.append(int(page))

    def next_use_from(position: int, page: int) -> int:
        for j in range(position, n):
            if pages_list[j] == page:
                return j
        return n

    def evict(position: int) -> None:
        farthest = max(
            resident,
            key=lambda page: (next_use_from(position, page), -page),
        )
        resident.remove(farthest)

    flags = np.zeros(n, dtype=bool)
    for lo, hi, capacity in epochs:
        while len(resident) > capacity:
            evict(lo)
        for i in range(lo, hi):
            page = pages_list[i]
            if page in resident:
                continue
            flags[i] = True
            if capacity <= 0:
                continue
            if len(resident) >= capacity:
                evict(i + 1)
            resident.append(page)
    return OptReplay(
        miss_flags=flags,
        misses=int(flags.sum()),
        final_resident=frozenset(resident),
    )


def _validate_epochs(epochs: Sequence[Epoch], n: int) -> None:
    prev_hi = 0
    for lo, hi, capacity in epochs:
        if lo != prev_hi or hi < lo or capacity < 0:
            raise SimulationError(
                f"epochs must tile [0, {n}) in order with non-negative "
                f"capacities; got ({lo}, {hi}, {capacity}) after {prev_hi}"
            )
        prev_hi = hi
    if epochs and prev_hi != n:
        raise SimulationError(
            f"epochs cover [0, {prev_hi}) but the trace has {n} accesses"
        )
    if not epochs and n > 0:
        raise SimulationError("a non-empty trace needs at least one epoch")


# --- the clairvoyant disk schedule --------------------------------------------


def offline_spin_decisions(
    lengths: np.ndarray, break_even_s: float
) -> np.ndarray:
    """Per-interval offline choice: True = spin down for this idle gap.

    The clairvoyant rule is a pure threshold -- spin down exactly when
    the gap outlasts the break-even time (at ``l == t_be`` both choices
    cost the same; we stay up).  Module-level on purpose: the mutation
    tests monkeypatch the threshold and assert ``CHECKS["optimal"]``
    notices the energy disagreeing with
    :func:`repro.stats.competitive.offline_optimal_energy`.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    return lengths > break_even_s


def offline_disk_energy(
    lengths: np.ndarray, spec: Optional[DiskSpec] = None
) -> float:
    """Static + transition joules of the clairvoyant schedule.

    Per interval of length ``l``: stay up (``p_s * l``) or pay one
    round trip (``p_s * t_be``), whichever :func:`offline_spin_decisions`
    picked.  With the true threshold this equals
    ``p_s * sum(min(l, t_be))`` -- the closed form
    :func:`repro.stats.competitive.offline_optimal_energy` computes
    independently.
    """
    spec = spec or DiskSpec()
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths.size and float(lengths.min()) < 0.0:
        raise SimulationError("idle intervals must be non-negative")
    t_be = spec.break_even_time_s
    spin = offline_spin_decisions(lengths, t_be)
    seconds = np.where(spin, t_be, lengths)
    return float(spec.static_power_watts * seconds.sum())


# --- the differential check ---------------------------------------------------

#: Fixed capacities (pages) the check sweeps; matches the predictor
#: check's Fibonacci ladder so known-adversarial patterns transfer.
OPTIMAL_CAPACITIES = (0, 1, 2, 3, 5, 8, 13, 21)


def check_optimal(case) -> Optional[str]:
    """``CHECKS["optimal"]``: the oracle is self-consistent and one-sided.

    Five invariants per fuzzed case:

    1. fast vs naive Belady agree access-for-access *and* on the final
       resident set (miss flags alone cannot see a tie-break bug:
       next-use ties only arise between never-again pages, which never
       influence a future hit -- the resident set is where such a bug
       surfaces);
    2. OPT misses are monotonically non-increasing in capacity;
    3. OPT <= LRU at every fixed capacity (Mattson distances);
    4. OPT <= the online epoch kernel under a random dynamic capacity
       schedule with the kernel's own boundary re-clamp semantics;
    5. the clairvoyant disk energy equals the independent closed form
       and lower-bounds every fixed-timeout policy on the same
       intervals.
    """
    from repro.cache.stack_distance import COLD, StackDistanceTracker
    from repro.sim.kernels import _epoch_misses
    from repro.stats import competitive
    from repro.stats.intervals import extract_idle_intervals
    from repro.verify.strategies import random_small_machine

    pages = np.ascontiguousarray(case.pages, dtype=np.int64)
    n = int(pages.size)
    next_use = compute_next_use(pages)
    depths = StackDistanceTracker().access_array(pages)

    # (1)-(3): fixed capacities.
    previous = None
    for capacity in OPTIMAL_CAPACITIES:
        epochs = [(0, n, capacity)] if n else []
        fast = opt_replay(pages, epochs, next_use=next_use)
        slow = naive_opt_replay(pages, epochs)
        detail = _compare_replays(fast, slow, f"capacity {capacity}")
        if detail is not None:
            return detail
        lru = int(((depths == COLD) | (depths >= capacity)).sum()) if n else 0
        if fast.misses > lru:
            return (
                f"capacity {capacity}: OPT missed {fast.misses} times, "
                f"LRU only {lru}"
            )
        if previous is not None and fast.misses > previous:
            return (
                f"capacity {capacity}: OPT misses rose to {fast.misses} "
                f"from {previous} at the next-smaller capacity"
            )
        previous = fast.misses

    # (4): a random dynamic schedule, against the epoch kernel's replay.
    if n:
        rng = np.random.default_rng(case.seed ^ 0x0B71)
        num_epochs = int(rng.integers(2, 5))
        cuts = sorted(int(rng.integers(0, n + 1)) for _ in range(num_epochs - 1))
        bounds = [0] + cuts + [n]
        epochs = [
            (bounds[k], bounds[k + 1], int(rng.integers(0, 22)))
            for k in range(num_epochs)
        ]
        fast = opt_replay(pages, epochs, next_use=next_use)
        slow = naive_opt_replay(pages, epochs)
        detail = _compare_replays(fast, slow, f"schedule {epochs}")
        if detail is not None:
            return detail
        online = 0
        resident = 0
        for lo, hi, capacity in epochs:
            resident = min(resident, capacity)
            miss_idx, resident = _epoch_misses(depths, lo, hi, resident, capacity)
            online += int(miss_idx.size)
        if fast.misses > online:
            return (
                f"schedule {epochs}: OPT missed {fast.misses} times, the "
                f"online epoch replay only {online}"
            )

    # (5): the disk axis on this case's idle intervals.
    disk = random_small_machine(case.seed).disk
    idle = extract_idle_intervals(
        case.times.tolist(),
        case.window_s,
        period_start=0.0,
        period_end=case.period_s,
    )
    ours = offline_disk_energy(idle.lengths, disk)
    reference = competitive.offline_optimal_energy(idle.lengths.tolist(), disk)
    if not math.isclose(ours, reference, rel_tol=1e-9, abs_tol=1e-9):
        return (
            f"clairvoyant disk energy {ours} J != competitive-analysis "
            f"closed form {reference} J"
        )
    t_be = disk.break_even_time_s
    for timeout in (0.0, t_be, 3.0 * t_be, math.inf):
        online_j = competitive.timeout_policy_energy(
            idle.lengths.tolist(), timeout, disk
        )
        if ours > online_j + max(abs(online_j) * 1e-9, 1e-9):
            return (
                f"clairvoyant disk energy {ours} J exceeds the timeout "
                f"{timeout}s policy's {online_j} J"
            )
    return None


def _compare_replays(fast: OptReplay, slow: OptReplay, where: str) -> Optional[str]:
    if not np.array_equal(fast.miss_flags, slow.miss_flags):
        first = int(np.flatnonzero(fast.miss_flags != slow.miss_flags)[0])
        return (
            f"{where}: miss flags diverge at access {first} "
            f"(fast {bool(fast.miss_flags[first])}, naive "
            f"{bool(slow.miss_flags[first])})"
        )
    if fast.final_resident != slow.final_resident:
        return (
            f"{where}: final resident sets differ: fast "
            f"{sorted(fast.final_resident)} != naive "
            f"{sorted(slow.final_resident)}"
        )
    return None
