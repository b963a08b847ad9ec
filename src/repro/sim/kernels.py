"""Vectorized replay kernels: span-at-a-time trace consumption.

The scalar engine loop dispatches one Python call chain per access.  On
the dominant workload shapes the outcome of every access is already
known before the replay starts: per-access stack depths (a
:class:`repro.cache.profile.TraceProfile` offline, the stream's
incremental tracker online) and the LRU inclusion property turn depths
into hits.  :meth:`SimulationEngine._walk` hands the kernels one *span*
at a time -- every access between two period boundaries, so the cache
capacity and the disk timeout are fixed inside it -- and each kernel
replays its span with numpy classification and batched accounting.
Misses, boundaries, policy callbacks and disk accounting run the exact
scalar operations in the exact order, so a fast replay is bit-identical
to the scalar loop -- the differential ``parity`` check (one scenario
per mode, plus the stream) and ``tests/sim/test_kernels.py`` assert as
much.

Five fast modes exist (:func:`select_mode`):

* ``"epoch"``, ``"missrun"`` and ``"vectorized"`` share
  :func:`_profiled_span`: joint-manager runs on the nap model
  (``"epoch"``; the span's ``(times, depths)`` feed the manager's
  period log as one batch, :meth:`JointPowerManager.record_profiled`)
  and fixed-capacity read-only runs under a memory system that opted
  into profiled replay (nap, power-down).  The span is classified by
  :func:`_epoch_misses` -- hit iff ``0 <= depth < resident``, where the
  resident-page count grows by one per miss up to the capacity and is
  re-clamped after a down-resize, exactly the LRU stack's inclusion
  behaviour -- and its memory energy is charged in one
  :meth:`MemorySystem.charge_hit_run` call (accounting is
  hit/miss-agnostic).  Misses go one at a time through the scalar
  ``_serve_miss``, or, when the disk policy is request-blind (it
  overrides neither ``on_request`` nor ``on_idle_start``; a joint
  manager moves the timeout only at boundaries) and the drive is
  batchable, as runs through :func:`_serve_miss_run`
  (:meth:`SimDisk.submit_run`, :meth:`MetricsCollector.on_miss_run`,
  :meth:`ReadaheadClusterer.add_run`).  Fixed-capacity runs that batch
  report ``"missrun"``, the others ``"vectorized"``.
* ``"writes"`` -- fixed-capacity *write-carrying* runs under a
  profiled-replay memory (:func:`_writes_span`).  Write-back is
  write-allocate, so the LRU evolves exactly as in a read-only replay
  and the depths stay valid; hit runs keep the live cache and dirty set
  in sync through :meth:`MemorySystem.consume_hit_run_rw`, split at the
  periodic flush sweeps, and every miss runs the scalar loop.
* ``"disable"`` -- the disable-state (DS) model on read-only runs
  (:func:`_disable_span`).  Bank invalidations make stack depths
  unusable, so this mode needs none: the live ``_page_bank`` map is the
  residency oracle.  Between two disable events (a touch of, or a load
  into, a bank past its deadline; a load into a full cache) the cache
  only grows, so :meth:`DisableMemorySystem.consume_hit_run` replays
  everything before the next event in numpy batches.  A batch's misses
  go through one :func:`_serve_miss_run` under a request-blind policy,
  through runs that end at each disk wake under a wake-driven one
  (AD, :attr:`DiskPolicy.wake_driven`), and one ``_serve_miss`` each
  otherwise; only the access at the event runs the scalar ``access``.

Fallback conditions (any one routes the run through the scalar loop):

* the ``$REPRO_KERNELS`` kill switch is set;
* the memory system did not opt into profiled replay
  (:data:`MemorySystem.profiled_replay`) and is not the disable model;
* a joint run under anything but the nap model (only nap is resizable);
* a joint run whose trace carries writes (flushes interleave with
  resizes under the live manager);
* a disable-model run whose trace carries writes (invalidation spills
  interleave with the flush cadence);
* no depths are available (offline: no profile, or one that does not
  cover the trace), except for the disable mode.

Misses are served one at a time rather than batched when the disk
policy overrides ``on_request`` or ``on_idle_start`` (it may change the
timeout mid-span; the disable mode still batches a wake-driven policy's
misses between wakes), when the drive prices requests from geometry (a
positioned service model), or when the drive instance carries a
``submit``/``submit_run`` override (e.g. the runner's miss-time
recorder), which the batch path would bypass.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cache.profile import TraceProfile, kernels_enabled
from repro.cache.stack_distance import COLD
from repro.errors import SimulationError
from repro.memory.system import (
    DisableMemorySystem,
    NapMemorySystem,
    supports_profiled_replay,
)
from repro.policies.base import DiskPolicy

#: SimResult.replay_mode values.
MODE_SCALAR = "scalar"
MODE_VECTORIZED = "vectorized"
MODE_MISSRUN = "missrun"
MODE_EPOCH = "epoch"
MODE_WRITES = "writes"
MODE_DISABLE = "disable"


def _policy_is_request_blind(policy) -> bool:
    """True when ``policy`` never reacts to individual requests.

    A request-blind policy overrides neither hook the engine fires per
    miss -- the base implementations discard their arguments and return
    ``NO_CHANGE`` -- so between two period boundaries the disk timeout
    is a constant and the whole per-miss policy round trip (including
    the idle-hint lookup feeding ``on_idle_start``) can be skipped.
    Checked on the concrete class so any override opts out.  A joint
    run has no policy (``None``): its manager moves the timeout only at
    period boundaries.
    """
    if policy is None:
        return True
    cls = type(policy)
    return (
        cls.on_request is DiskPolicy.on_request
        and cls.on_idle_start is DiskPolicy.on_idle_start
    )


def _policy_is_wake_driven(policy) -> bool:
    """True when ``policy`` reacts only to requests that wake the disk.

    Its ``on_request`` declares :attr:`DiskPolicy.wake_driven` on the
    class that defines it, and it does not override ``on_idle_start``:
    the misses between two wakes then need no policy round trip.
    """
    if policy is None:
        return False
    cls = type(policy)
    owner = next(k for k in cls.__mro__ if "on_request" in vars(k))
    return (
        vars(owner).get("wake_driven", False)
        and cls.on_idle_start is DiskPolicy.on_idle_start
    )


def _batchable_disk(disk) -> bool:
    """True when ``disk`` may serve miss runs through ``submit_run``.

    A positioned service model prices each request from the head
    position, which the precomputed sequential/first split cannot
    express; and an instance-level ``submit``/``submit_run`` override
    (e.g. :func:`repro.sim.runner._collect_miss_times`'s recorder) would
    be silently bypassed by the batch path.  Class-level patches (the
    mutation tests) still take effect through ``submit_run`` itself.
    """
    return (
        disk.positioned is None
        and "submit" not in disk.__dict__
        and "submit_run" not in disk.__dict__
    )


def select_mode(
    engine, has_writes: bool, depths: bool
) -> Tuple[str, Optional[str]]:
    """Pick the replay mode for a run of ``engine``.

    ``has_writes`` says whether the accesses carry writes and ``depths``
    whether their stack depths will be supplied (a covering profile
    offline, the incremental tracker in a stream).  Returns ``(mode,
    reason)``: ``reason`` explains a scalar fallback and is None when a
    fast mode applies.
    """
    if not kernels_enabled():
        return MODE_SCALAR, "the $REPRO_KERNELS kill switch disables the fast paths"
    memory = engine.memory
    if engine.manager is None and type(memory) is DisableMemorySystem:
        # The disable mode replays from live bank state: no depths needed.
        if has_writes:
            return (
                MODE_SCALAR,
                "write-back flushing under disable-model invalidations "
                "needs the live scalar loop",
            )
        return MODE_DISABLE, None
    if not depths:
        return MODE_SCALAR, "no trace profile covering the trace supplied"
    if engine.manager is not None:
        if has_writes:
            return (
                MODE_SCALAR,
                "write-back traces interleave flushes with resizes under "
                "the joint manager",
            )
        if type(memory) is not NapMemorySystem:
            return (
                MODE_SCALAR,
                "joint replay supports only the nap memory model, not "
                f"{type(memory).__name__}",
            )
        return MODE_EPOCH, None
    if not supports_profiled_replay(memory):
        return (
            MODE_SCALAR,
            f"{type(memory).__name__} hit/miss outcomes depend on "
            "state the profile cannot predict",
        )
    if has_writes:
        return MODE_WRITES, None
    if _policy_is_request_blind(engine.policy) and _batchable_disk(engine.disk):
        return MODE_MISSRUN, None
    return MODE_VECTORIZED, None


def reads_depths(mode: str) -> bool:
    """True when replay ``mode`` classifies accesses from stack depths
    (every mode but the scalar loop and the disable model's live-state
    replay), so a run in it needs a profile or a tracker."""
    return mode not in (MODE_SCALAR, MODE_DISABLE)


def fast_path_reason(engine, trace, profile: Optional[TraceProfile]) -> Optional[str]:
    """Why a run of ``trace`` cannot take a fast path (None = it can)."""
    covered = profile is not None and len(profile) == trace.num_accesses
    return select_mode(engine, trace.has_writes, covered)[1]


def _profiled_span(engine, st, lo: int, hi: int) -> None:
    """Replay the read-only span ``[lo, hi)`` of one epoch from its depths.

    The ``"epoch"``, ``"missrun"`` and ``"vectorized"`` kernel.  No event
    falls inside the span, so the memory accrual of all its accesses is
    one :meth:`MemorySystem.charge_hit_run` call (it charges exactly what
    the per-access loop charges, in the same order), its hits fold into
    one metrics addition, and only the misses are served.
    """
    memory = engine.memory
    times = st.times
    pages = st.pages
    depths = st.depths
    if engine.manager is not None:
        # The manager reads its period log only at end_period, so feeding
        # the span ahead of its misses is exact -- the scalar loop records
        # its spans the same way (JointPowerManager.record_pages).
        engine.manager.record_profiled(times[lo:hi], depths[lo:hi])
    misses, st.resident = _epoch_misses(
        depths, lo, hi, st.resident, memory.capacity_pages
    )
    memory.charge_hit_run(times, pages, lo, hi)
    st.metrics.on_hits(hi - lo - misses.size)
    if st.batch_misses:
        # One batch per run of consecutive misses.  One batch for all of
        # them is as exact (the disable kernel serves its misses so), but
        # it would widen the stream-vs-offline gap (ROADMAP item 3).
        for run_lo, run_hi in _miss_runs(misses):
            _serve_miss_run(engine, st, slice(run_lo, run_hi))
    else:
        _serve_misses(engine, st, misses)


def _serve_misses(engine, st, misses: np.ndarray, until_wake: bool = False) -> None:
    """Serve the accesses at the ascending indices ``misses`` in order.

    In one :func:`_serve_miss_run` when the run batches misses.  Under a
    wake-driven policy (``until_wake``), in batches up to each miss that
    wakes the disk; that miss alone runs ``_serve_miss`` and its policy
    hooks.  Otherwise one ``_serve_miss`` each.
    """
    if st.batch_misses:
        if misses.size:
            _serve_miss_run(engine, st, misses)
        return
    serve_miss = engine._serve_miss
    if until_wake:
        pos = 0
        while pos < misses.size:
            pos += _serve_miss_run(engine, st, misses[pos:], until_wake=True)
            if pos < misses.size:
                at = int(misses[pos])
                serve_miss(st, float(st.times[at]), int(st.pages[at]))
                pos += 1
        return
    for now, page in zip(st.times[misses].tolist(), st.pages[misses].tolist()):
        serve_miss(st, now, page)


def _miss_runs(miss_indices: np.ndarray):
    """Yield ``(lo, hi)`` half-open spans of consecutive miss indices."""
    if miss_indices.size == 0:
        return
    breaks = np.flatnonzero(np.diff(miss_indices) != 1) + 1
    starts = miss_indices[np.concatenate(([0], breaks))].tolist()
    ends = miss_indices[np.concatenate((breaks - 1, [miss_indices.size - 1]))].tolist()
    for lo, hi in zip(starts, ends):
        yield lo, hi + 1


def _serve_miss_run(engine, st, misses, until_wake: bool = False) -> int:
    """Serve the misses at ``misses`` batched: a slice of the replay, or
    an array of ascending indices into it.  With ``until_wake``, serve
    only those before the first that would wake the disk
    (:meth:`SimDisk.submit_until_wake`).  Returns the number served.

    Exactly what one ``_serve_miss`` per access would do.  The scalar
    loop interleaves three objects per miss -- the drive, metrics, the
    clusterer -- and none of them sees the hits between the misses
    (a hit only counts, :meth:`MetricsCollector.on_hits`).  Their
    accumulators are disjoint, so advancing each object over all the
    misses in its own pass preserves every object's internal
    floating-point operation order bit-exactly.  The per-miss policy
    hooks are skipped entirely: eligibility guarantees they are the
    base-class no-ops.
    """
    # Deferred: engine.py imports this module at its own top level.
    from repro.sim.engine import SEQUENTIAL_MERGE_WINDOW_S

    run_times = st.times[misses]
    run_pages = st.pages[misses]
    n = run_times.size
    # The scalar flag: next page in sequence, within the merge window.
    # Element 0 continues the previous miss (possibly many hit runs and
    # boundaries ago); the rest compare against the miss before them.
    seq = np.empty(n, dtype=bool)
    seq[0] = (
        int(run_pages[0]) == st.last_miss_page + 1
        and float(run_times[0]) - st.last_miss_time <= SEQUENTIAL_MERGE_WINDOW_S
    )
    if n > 1:
        np.logical_and(
            run_pages[1:] == run_pages[:-1] + 1,
            run_times[1:] - run_times[:-1] <= SEQUENTIAL_MERGE_WINDOW_S,
            out=seq[1:],
        )
    services = _miss_run_services(engine.disk.service, seq)
    times_list = run_times.tolist()

    if until_wake:
        latencies, wake_delays = engine.disk.submit_until_wake(
            times_list, services
        )
        n = len(latencies)
        if n == 0:
            return 0
        del times_list[n:]
        run_pages = run_pages[:n]
    else:
        latencies, wake_delays = engine.disk.submit_run(times_list, services)
    st.metrics.on_miss_run(times_list, latencies, wake_delays)
    completed = st.clusterer.add_run(times_list, run_pages.tolist())
    if completed:
        st.metrics.on_requests(completed)
    st.last_miss_page = int(run_pages[n - 1])
    st.last_miss_time = times_list[n - 1]
    return n


def _miss_run_services(service, seq: np.ndarray):
    """Per-miss service times for a run given its sequential flags.

    ``ServiceModel.service_time`` is a pure function of its arguments,
    so the two single-page prices are computed once -- bit-identical to
    the scalar loop's per-miss calls -- and spread by the flags.
    """
    svc_first = service.service_time(1, False)
    svc_seq = service.service_time(1, True)
    return np.where(seq, svc_seq, svc_first).tolist()


def _writes_span(engine, st, lo: int, hi: int) -> None:
    """Replay the write-carrying span ``[lo, hi)`` of one epoch.

    Write-allocate keeps the LRU evolution read-identical, so the depths
    classify every access; hit runs go through :func:`_consume_hits`,
    and each miss run -- misses, dirty evictions, the flush sweeps they
    reach -- through the scalar loop.
    """
    misses, st.resident = _epoch_misses(
        st.depths, lo, hi, st.resident, engine.memory.capacity_pages
    )
    pos = lo
    for run_lo, run_hi in _miss_runs(misses):
        if pos < run_lo:
            _consume_hits(engine, st, pos, run_lo)
        engine._replay_scalar(st, run_lo, run_hi)
        pos = run_hi
    if pos < hi:
        _consume_hits(engine, st, pos, hi)


def _consume_hits(engine, st, lo: int, hi: int) -> None:
    """Account the write-trace hit run ``[lo, hi)``, firing flush sweeps.

    Each pending sweep splits the run with one ``searchsorted``, so a
    sweep at ``flush_at`` sees exactly the dirty marks of accesses
    before it.  An access at exactly the sweep time fires the sweep
    first (matching the scalar ``drain_events`` ordering), hence
    ``side='left'``.
    """
    times = st.times
    while lo < hi:
        event_at = min(st.next_flush, st.next_boundary)
        if event_at > st.duration_s:
            cut = hi
        else:
            cut = min(max(int(np.searchsorted(times, event_at, side="left")), lo), hi)
        if cut > lo:
            engine.memory.consume_hit_run_rw(times, st.pages, st.writes, lo, cut)
            st.metrics.on_hits(cut - lo)
            lo = cut
        if lo < hi:
            engine._drain_events(st, float(times[lo]))
            if min(st.next_flush, st.next_boundary) == event_at:
                raise SimulationError(
                    "write replay made no progress at a pending event"
                )


def _disable_span(engine, st, lo: int, hi: int) -> None:
    """Replay the read-only span ``[lo, hi)`` of one disable-model epoch.

    :meth:`DisableMemorySystem.consume_hit_run` accounts the memory half
    of everything before the next disable event in batches; the batch's
    hits fold into one metrics addition and its misses are served by
    :func:`_serve_misses`.  Only the access at the event replays
    through the scalar ``access``.
    """
    memory = engine.memory
    times = st.times
    pages = st.pages
    until_wake = (
        not st.batch_misses
        and _policy_is_wake_driven(engine.policy)
        and _batchable_disk(engine.disk)
    )
    pos = lo
    while pos < hi:
        stop, misses = memory.consume_hit_run(times, pages, pos, hi)
        st.metrics.on_hits(stop - pos - misses.size)
        _serve_misses(engine, st, misses, until_wake)
        if stop >= hi:
            break
        now = float(times[stop])
        page = int(pages[stop])
        if memory.access(now, page):
            st.metrics.on_hit(now)
        else:
            engine._serve_miss(st, now, page)
        pos = stop + 1


def _epoch_misses(
    depths, lo: int, hi: int, resident: int, capacity: int
) -> Tuple[np.ndarray, int]:
    """Miss indices within ``[lo, hi)`` at fixed ``capacity``.

    Returns ``(global_miss_indices, resident_after)``.  The resident set
    is the top ``resident`` pages of the full-history LRU stack, so an
    access hits iff ``0 <= depth < resident``; each miss grows the set
    by one up to ``capacity``.  With the cache full that is the plain
    Mattson rule, vectorized.  Partially filled (after an up-resize, or
    a cold start that has not filled the cache yet), an access that is
    cold or reaches the capacity misses regardless; only the ones in
    ``[resident, capacity)`` depend on how far the set has grown by
    then, and only those are walked.
    """
    window = depths[lo:hi]
    if resident >= capacity:
        miss = (window == COLD) | (window >= capacity)
        return np.flatnonzero(miss) + lo, resident

    candidates = np.flatnonzero((window == COLD) | (window >= resident))
    cand_depths = window[candidates]
    miss = (cand_depths == COLD) | (cand_depths >= capacity)
    undecided = np.flatnonzero(~miss)
    if undecided.size:
        # Misses before candidate j: the certain ones (a prefix count)
        # plus the undecided ones walked so far.
        certain_before = (np.cumsum(miss) - miss)[undecided].tolist()
        grown = 0
        for j, depth, before in zip(
            undecided.tolist(), cand_depths[undecided].tolist(), certain_before
        ):
            if depth >= min(resident + before + grown, capacity):
                miss[j] = True
                grown += 1
    resident = min(resident + int(np.count_nonzero(miss)), capacity)
    return candidates[miss] + lo, resident
