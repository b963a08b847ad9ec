"""The trace-driven simulation engine.

Replays a disk-cache access trace through a memory system (LRU cache +
memory power policy), a simulated drive and a disk power policy -- or the
joint manager, which owns both knobs.  Mirrors the paper's evaluation
pipeline (Fig. 6(b)): synthesized traces -> disk-cache simulation -> disk
simulation + power managers.

Misses are priced individually; a miss that continues the previous miss's
sequential run within a short merge window is charged the sequential
service time (track-to-track positioning), which reproduces what request
clustering/read-ahead achieves while keeping submissions in time order.
The merged *request count* statistics still come from a
:class:`~repro.cache.readahead.ReadaheadClusterer` fed with the same miss
stream.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from repro.cache.profile import TraceProfile
from repro.cache.readahead import ReadaheadClusterer
from repro.config.machine import MachineConfig
from repro.core.joint import JointPowerManager
from repro.disk.drive import SimDisk
from repro.disk.service import ServiceModel
from repro.errors import SimulationError
from repro.memory.system import MemorySystem
from repro.policies.base import NO_CHANGE, DiskPolicy
from repro.sim import kernels
from repro.sim.metrics import MetricsCollector
from repro.sim.results import SimResult
from repro.traces.trace import Trace

#: Misses this close in time to the previous, next-page miss are priced as
#: sequential continuations (the block layer would have merged them).
SEQUENTIAL_MERGE_WINDOW_S = 0.05

#: Default write-back flush cadence (Linux pdflush-style sweep).
FLUSH_INTERVAL_S = 30.0


class _ReplayState:
    """Mutable per-run bookkeeping of the replay core.

    The boundary walk, the span replayers, the event drainer and the run
    tail all read and mutate this one place.  ``times``/``pages``/
    ``writes``/``depths`` are the arrays being replayed (the whole trace
    offline, the pending buffer of a stream); ``resident`` is the epoch
    kernel's resident-page count (:func:`repro.sim.kernels._epoch_misses`).
    """

    __slots__ = (
        "metrics",
        "clusterer",
        "has_writes",
        "duration_s",
        "warmup_s",
        "period_s",
        "next_flush",
        "next_boundary",
        "last_flush_page",
        "last_miss_page",
        "last_miss_time",
        "current_timeout",
        "mem_mark",
        "disk_mark",
        "mode",
        "batch_misses",
        "resident",
        "times",
        "pages",
        "writes",
        "depths",
    )


class SimulationEngine:
    """One configured run: machine + memory system + disk policy/manager."""

    def __init__(
        self,
        machine: MachineConfig,
        memory: MemorySystem,
        disk_policy: Optional[DiskPolicy] = None,
        joint_manager: Optional[JointPowerManager] = None,
        idle_hints: Optional[np.ndarray] = None,
        label: str = "run",
        use_geometry: bool = False,
        flush_interval_s: float = FLUSH_INTERVAL_S,
        record_events: bool = False,
    ) -> None:
        if (disk_policy is None) == (joint_manager is None):
            raise SimulationError(
                "provide exactly one of disk_policy or joint_manager"
            )
        if joint_manager is not None and not memory.resizable:
            raise SimulationError("the joint manager needs a resizable memory")
        self.machine = machine
        self.memory = memory
        self.policy = disk_policy
        self.manager = joint_manager
        self.label = label
        self.service = ServiceModel(machine.disk, machine.page_bytes)
        positioned = None
        if use_geometry:
            from repro.disk.positioned import PositionedServiceModel

            positioned = PositionedServiceModel(
                machine.disk, machine.page_bytes
            )
        events = None
        if record_events:
            from repro.disk.events import DiskEventLog

            events = DiskEventLog()
        self.disk = SimDisk(
            machine.disk, self.service, positioned=positioned, events=events
        )
        self.idle_hints = (
            None if idle_hints is None else np.asarray(idle_hints, dtype=float)
        )
        if flush_interval_s <= 0:
            raise SimulationError("flush interval must be positive")
        self.flush_interval_s = flush_interval_s
        #: Which replay loop the most recent :meth:`run` used.
        self.last_replay_mode = kernels.MODE_SCALAR

    # --- helpers ---------------------------------------------------------------

    def _initial_timeout(self) -> Optional[float]:
        if self.manager is not None:
            return self.manager.timeout_s
        assert self.policy is not None
        return self.policy.initial_timeout()

    def _next_hint(self, after_s: float) -> Optional[float]:
        if self.idle_hints is None or self.idle_hints.size == 0:
            return None
        index = int(np.searchsorted(self.idle_hints, after_s, side="right"))
        if index >= self.idle_hints.size:
            return None
        return float(self.idle_hints[index])

    # --- the replay core ----------------------------------------------------------

    def run(
        self,
        trace: Trace,
        duration_s: Optional[float] = None,
        warmup_s: float = 0.0,
        profile: Optional[TraceProfile] = None,
    ) -> SimResult:
        """Replay ``trace`` and return the run's result.

        ``warmup_s`` (a whole number of periods) excludes the cold-start
        window from every reported metric and energy figure: the cache
        fills and the managers adapt during warm-up, but observation
        starts at its end.

        ``profile`` (a :class:`repro.cache.profile.TraceProfile` computed
        for this exact trace *and* the prefill actually applied to the
        memory system) enables the vectorized replay kernels when the run
        is eligible (:func:`repro.sim.kernels.fast_path_reason`); results
        are bit-identical either way.
        """
        period = self.machine.manager.period_s
        if duration_s is None:
            periods = max(int(np.ceil(trace.duration_s / period)), 1)
            duration_s = periods * period
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        if warmup_s < 0 or warmup_s >= duration_s:
            raise SimulationError("warm-up must be within the duration")
        if warmup_s and abs(warmup_s / period - round(warmup_s / period)) > 1e-9:
            raise SimulationError("warm-up must be a whole number of periods")

        if self.manager is not None and (
            self.memory.capacity_bytes != self.manager.memory_bytes
        ):
            raise SimulationError(
                "memory system and joint manager disagree on the initial size"
            )

        covered = profile is not None and len(profile) == trace.num_accesses
        st = self._start(trace.has_writes, duration_s, warmup_s, covered)
        st.times, st.pages, st.writes = trace.times, trace.pages, trace.writes
        st.depths = profile.depths if covered else None
        self._walk(st, 0, trace.num_accesses)
        return self._finish(st, (st.metrics, st.metrics._current))

    def _start(
        self, has_writes: bool, duration_s: float, warmup_s: float, depths: bool
    ) -> _ReplayState:
        """Pick the replay mode, set the initial timeout, build the state.

        ``depths`` says whether per-access stack depths will be supplied
        (see :func:`repro.sim.kernels.select_mode`); the caller binds the
        access arrays to the returned state.
        """
        manager_cfg = self.machine.manager
        st = _ReplayState()
        st.mode = kernels.select_mode(self, has_writes, depths)[0]
        self.last_replay_mode = st.mode
        st.batch_misses = kernels._policy_is_request_blind(
            self.policy
        ) and kernels._batchable_disk(self.disk)
        self.disk.set_timeout(0.0, self._initial_timeout())
        st.metrics = MetricsCollector(
            period_s=manager_cfg.period_s,
            long_latency_threshold_s=manager_cfg.long_latency_threshold_s,
            aggregation_window_s=manager_cfg.aggregation_window_s,
        )
        st.clusterer = ReadaheadClusterer(
            merge_window_s=SEQUENTIAL_MERGE_WINDOW_S
        )
        st.has_writes = has_writes
        st.duration_s = duration_s
        st.warmup_s = warmup_s
        st.period_s = manager_cfg.period_s
        st.next_flush = self.flush_interval_s
        st.next_boundary = manager_cfg.period_s
        st.last_flush_page = -2
        st.last_miss_page = -2
        st.last_miss_time = -np.inf
        st.current_timeout = self.disk.timeout_s
        st.mem_mark = self.memory.energy.snapshot() if warmup_s == 0 else None
        st.disk_mark = self.disk.energy.snapshot() if warmup_s == 0 else None
        st.resident = len(self.memory.cache)
        st.times = st.pages = st.writes = st.depths = None
        return st

    def _walk(self, st: _ReplayState, lo: int, hi: int) -> int:
        """Replay accesses ``[lo, hi)`` epoch by epoch; returns the cutoff.

        Accesses at or past the run's duration are cut off (the returned
        index is the first of them).  Each stretch between two period
        boundaries replays as one span; a boundary fires (``end_period``,
        resize, timeout) through ``_drain_events`` only while an access
        at or past it remains -- the ones past the last access belong to
        the run tail -- and the resident count is re-clamped after it so
        the next epoch's classification sees the resize.  An access
        exactly at a boundary belongs to the next epoch: the scalar loop
        drains events before it records the access.
        """
        times = st.times
        hi = lo + int(np.searchsorted(times[lo:hi], st.duration_s, side="left"))
        pos = lo
        while pos < hi:
            boundary = st.next_boundary
            end = hi
            if boundary <= st.duration_s:
                end = pos + int(
                    np.searchsorted(times[pos:hi], boundary, side="left")
                )
            if end > pos:
                self._replay_span(st, pos, end)
                pos = end
                if pos >= hi:
                    break
            self._drain_events(st, boundary)
            st.resident = min(st.resident, self.memory.capacity_pages)
        return hi

    def _replay_span(self, st: _ReplayState, lo: int, hi: int) -> None:
        """Replay ``[lo, hi)`` in the run's mode.

        A span with a joint manager, or in a fast mode, must lie inside
        one epoch; a manager-less scalar span fires its own events and
        may cross boundaries.
        """
        mode = st.mode
        if mode == kernels.MODE_SCALAR:
            self._replay_scalar(st, lo, hi)
        elif mode == kernels.MODE_WRITES:
            kernels._writes_span(self, st, lo, hi)
        elif mode == kernels.MODE_DISABLE:
            kernels._disable_span(self, st, lo, hi)
        else:
            kernels._profiled_span(self, st, lo, hi)

    def _finish(self, st: _ReplayState, flush_target) -> SimResult:
        """The run tail: close every open account and build the result.

        ``flush_target`` is the ``(collector, open period)`` that was
        current after the last replayed access: the still-open read-ahead
        cluster's request is counted there, before the trailing events
        (flushes and periods in the idle tail) fire.
        """
        memory = self.memory
        disk = self.disk
        duration_s = st.duration_s
        if st.clusterer.flush() is not None:
            if flush_target is None:
                raise SimulationError(
                    "read-ahead cluster without a processed access"
                )
            collector, period = flush_target
            collector.total_disk_requests += 1
            period.disk_requests += 1

        self._drain_events(st, duration_s)
        metrics = st.metrics
        last_closed = (
            metrics.periods[-1].end_s
            if metrics.periods
            else metrics.current_period_start
        )
        if not metrics.periods or last_closed < duration_s - 1e-9:
            # Close the trailing (possibly partial) window so the period
            # spans always tile the measured window exactly.
            metrics.close_period(
                duration_s,
                memory_bytes=memory.capacity_bytes,
                timeout_s=st.current_timeout,
            )

        if st.has_writes:
            # Final write-back sweep: everything still dirty goes to disk.
            remaining = memory.take_pending_flushes() + memory.flush_all()
            if remaining:
                self._flush(duration_s, remaining, metrics, st.last_flush_page)

        disk.finalize(duration_s)
        memory.finalize(duration_s)

        if st.mem_mark is None or st.disk_mark is None:
            raise SimulationError("warm-up window never closed")
        memory_energy = memory.energy.minus(st.mem_mark)
        disk_energy = disk.energy.minus(st.disk_mark)
        observed_s = duration_s - st.warmup_s
        manager = self.manager

        return SimResult(
            label=self.label,
            duration_s=observed_s,
            memory_energy_j=memory_energy.total_j,
            disk_energy_j=disk_energy.total_joules(self.machine.disk),
            memory_energy=memory_energy,
            disk_energy=disk_energy,
            total_accesses=metrics.total_accesses,
            disk_page_accesses=metrics.total_disk_pages,
            disk_requests=metrics.total_disk_requests,
            disk_write_pages=metrics.total_flush_pages,
            mean_latency_s=metrics.mean_latency_s,
            long_latency=metrics.total_long_latency,
            wake_long_latency=metrics.total_wake_long_latency,
            spin_down_cycles=disk_energy.spin_down_cycles,
            utilization=disk_energy.utilization(observed_s),
            periods=metrics.periods,
            decisions=list(manager.decisions) if manager is not None else [],
            replay_mode=self.last_replay_mode,
        )

    def _replay_scalar(self, st: _ReplayState, lo: int, hi: int) -> None:
        """The per-access reference loop over ``[lo, hi)`` (joint
        write-back runs, profile-less replays, the ``REPRO_KERNELS=0``
        kill switch, and the misses of the write-carrying kernel).

        A joint manager's span is recorded as one batch before the loop:
        its period log is read only when the next boundary fires, and the
        span must end before that boundary.
        """
        memory = self.memory
        has_writes = st.has_writes
        drain_events = self._drain_events
        serve_miss = self._serve_miss

        if self.manager is not None and hi > lo:
            if st.times[hi - 1] >= st.next_boundary:
                raise SimulationError(
                    f"scalar span [{lo}, {hi}) reaches the period boundary "
                    f"at {st.next_boundary}s; the joint manager records "
                    "whole spans and needs them inside one period"
                )
            self.manager.record_pages(st.times[lo:hi], st.pages[lo:hi])

        times = st.times[lo:hi].tolist()
        pages = st.pages[lo:hi].tolist()
        # Write-free runs (the common case) iterate a constant instead
        # of materializing a [False] * n list or a tolist() copy.
        writes = (
            st.writes[lo:hi].tolist() if has_writes else itertools.repeat(False)
        )

        for now, page, is_write in zip(times, pages, writes):
            drain_events(st, now)
            if has_writes:
                hit = memory.access_rw(now, page, is_write)
                pending = memory.take_pending_flushes()
                if pending:
                    st.last_flush_page = self._flush(
                        now, pending, st.metrics, st.last_flush_page
                    )
                if is_write:
                    # Write-back: the cache absorbs the write (allocate
                    # without fetch on a miss) -- no disk read, no
                    # user-visible disk latency.
                    if hit:
                        st.metrics.on_hit(now)
                    else:
                        st.metrics.on_write(now)
                    continue
            else:
                hit = memory.access(now, page)
            if hit:
                st.metrics.on_hit(now)
                continue
            serve_miss(st, now, page)

    def _serve_miss(self, st: _ReplayState, now: float, page: int) -> None:
        """One disk page access: pricing, metrics, policy callbacks."""
        disk = self.disk
        sequential = (
            page == st.last_miss_page + 1
            and now - st.last_miss_time <= SEQUENTIAL_MERGE_WINDOW_S
        )
        st.last_miss_page = page
        st.last_miss_time = now

        idle_before = max(now - disk.busy_until, 0.0)
        result = disk.submit(now, 1, sequential=sequential, page=page)
        st.metrics.on_miss(now, result.latency_s, result.wake_delay_s)
        if st.clusterer.add(now, page) is not None:
            st.metrics.on_request()

        policy = self.policy
        if policy is not None:
            update = policy.on_request(
                now, result.latency_s, result.wake_delay_s, idle_before
            )
            if update is not NO_CHANGE:
                disk.set_timeout(now, update)
                st.current_timeout = disk.timeout_s
            hint = self._next_hint(now)
            update = policy.on_idle_start(result.finish_s, hint)
            if update is not NO_CHANGE:
                disk.set_timeout(now, update)
                st.current_timeout = disk.timeout_s

    def _drain_events(self, st: _ReplayState, until_s: float) -> None:
        """Fire pending flush/boundary events in time order up to
        ``until_s`` (inclusive, capped at the run's duration)."""
        while True:
            flush_at = st.next_flush if st.has_writes else math.inf
            event_at = min(flush_at, st.next_boundary)
            if event_at > until_s or event_at > st.duration_s:
                break
            if flush_at <= st.next_boundary:
                st.last_flush_page = self._flush(
                    flush_at,
                    self.memory.flush_all(),
                    st.metrics,
                    st.last_flush_page,
                )
                st.next_flush += self.flush_interval_s
            else:
                st.current_timeout = self._handle_boundary(
                    st.next_boundary, st.metrics, st.current_timeout
                )
                if st.mem_mark is None and st.next_boundary >= st.warmup_s - 1e-9:
                    st.metrics, st.mem_mark, st.disk_mark = (
                        self._begin_measurement(st.next_boundary)
                    )
                st.next_boundary += st.period_s

    def _begin_measurement(self, at_s: float):
        """Close the warm-up window: snapshot energies, fresh metrics."""
        manager_cfg = self.machine.manager
        self.memory.checkpoint(at_s)
        self.disk.checkpoint(at_s)
        metrics = MetricsCollector(
            period_s=manager_cfg.period_s,
            long_latency_threshold_s=manager_cfg.long_latency_threshold_s,
            aggregation_window_s=manager_cfg.aggregation_window_s,
            start_s=at_s,
        )
        return metrics, self.memory.energy.snapshot(), self.disk.energy.snapshot()

    def _flush(
        self,
        now: float,
        dirty_pages,
        metrics: MetricsCollector,
        last_flush_page: int,
    ) -> int:
        """Write dirty pages back; contiguous runs stream sequentially."""
        for page in sorted(dirty_pages):
            sequential = page == last_flush_page + 1
            self.disk.submit(now, 1, sequential=sequential, page=page)
            last_flush_page = page
        metrics.on_flush(len(dirty_pages))
        return last_flush_page

    def _handle_boundary(
        self,
        boundary_s: float,
        metrics: MetricsCollector,
        current_timeout: Optional[float],
    ) -> Optional[float]:
        """Period housekeeping; returns the timeout now in effect."""
        disk = self.disk
        disk.advance(boundary_s)
        metrics.close_period(
            boundary_s,
            memory_bytes=self.memory.capacity_bytes,
            timeout_s=current_timeout,
        )
        if self.manager is not None:
            self.manager.avg_request_pages = metrics.avg_request_pages
            decision = self.manager.end_period(boundary_s)
            self.memory.resize(boundary_s, decision.memory_bytes)
            disk.set_timeout(boundary_s, decision.timeout_s)
            return disk.timeout_s
        assert self.policy is not None
        update = self.policy.on_period(boundary_s)
        if update is not NO_CHANGE:
            disk.set_timeout(boundary_s, update)
        return disk.timeout_s
