"""The streaming power-manager core: offline replay, fed incrementally.

A :class:`StreamingManager` drives the existing simulation machinery --
the Mattson :class:`~repro.cache.stack_distance.StackDistanceTracker`,
:meth:`~repro.cache.predictor.ResizePredictor.record_array` and the
:class:`~repro.core.joint.JointPowerManager` -- from *incremental access
batches* instead of a complete trace.  ``feed(times, pages)`` buffers
the batch, replays every epoch the new data completes through the PR-4
epoch-segmented kernels, and returns the period decisions that firing
those boundaries produced.  ``close()`` finishes the run exactly the way
:meth:`SimulationEngine.run` does and returns a ``SimResult``.

Parity contract (enforced by ``CHECKS["stream"]`` and
``tests/service/``): for any batch split of an access sequence,
``close()`` is **bit-identical** -- every energy figure, every per-period
counter, every ``PeriodDecision`` including candidate evaluations -- to
an offline ``engine.run`` of the same sequence with the same duration.
The streaming replay therefore never reorders or re-times a single
engine call; it only defers work until the incoming stream has proven
the epoch complete:

* A period boundary ``B`` fires as soon as a buffered access at
  ``t >= B`` with a *later* access behind it guarantees the epoch is
  closed (the offline loops fire ``B`` when they reach that access).
  An access at exactly the stream's high-water mark is held back: a
  default-duration close could still drop it (the offline loop's
  ``now >= duration`` cutoff), which would turn ``B`` into a trailing
  boundary with a different event order.
* Idle streams (``advance(now)``) fire boundaries past the last access
  only while no read-ahead cluster is in flight.  The offline close
  counts an unresolved cluster's request *before* trailing boundaries
  but *after* interior ones, and which case applies depends on accesses
  that have not arrived yet -- so those decisions defer to the next
  ``feed`` or to ``close`` rather than risk a divergence.
* The final cluster flush at ``close`` is attributed to the metrics
  period that was current after the last processed access -- exactly
  where the offline close's ``on_request`` lands -- even when idle
  boundaries were already fired past it.

Replay modes mirror :func:`repro.sim.kernels.select_mode`:
``stream-epoch`` (joint manager on the nap memory model),
``stream-missrun`` (fixed capacity, profiled-replay memory, a
request-blind disk policy -- misses batch through
:meth:`SimDisk.submit_run` exactly as offline ``"missrun"`` runs do),
``stream-vectorized`` (fixed capacity, profiled-replay memory, a
request-aware policy), ``stream-writes`` (fixed capacity with
write-back -- hit runs through
:meth:`MemorySystem.consume_hit_run_rw`, flush sweeps through the
scalar drain), ``stream-disable`` (the 2TDS model's profile-free
pure-hit-prefix replay) and ``stream-scalar`` (joint write-back
streams or the ``REPRO_KERNELS=0`` kill switch).  Oracle-disk methods
need future knowledge and are rejected.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cache.profile import kernels_enabled
from repro.cache.stack_distance import COLD, StackDistanceTracker
from repro.config.machine import MachineConfig
from repro.core.joint import JointPowerManager, PeriodDecision
from repro.errors import SimulationError
from repro.memory.system import (
    DisableMemorySystem,
    NapMemorySystem,
    supports_profiled_replay,
)
from repro.policies.registry import MethodSpec, parse_method
from repro.sim import kernels
from repro.sim.engine import SimulationEngine, _ReplayState
from repro.sim.metrics import MetricsCollector
from repro.sim.results import SimResult

#: ``SimResult.replay_mode`` values for streaming runs.
STREAM_SCALAR = "stream-scalar"
STREAM_VECTORIZED = "stream-vectorized"
STREAM_MISSRUN = "stream-missrun"
STREAM_EPOCH = "stream-epoch"
STREAM_WRITES = "stream-writes"
STREAM_DISABLE = "stream-disable"

_INITIAL_BUFFER = 1024

#: Which side of a period boundary an exactly-tied access belongs to.
#: ``"left"`` matches the scalar loop (events drain before the access is
#: recorded, so a tie goes to the *next* epoch).  Module-level so the
#: injected-bug tests can flip it and prove ``CHECKS["stream"]`` catches
#: the off-by-one.
_BOUNDARY_SIDE = "left"


class StreamingManager:
    """One tenant's online power-management stream.

    Parameters
    ----------
    method:
        A paper-style method name (``JOINT``, ``JOINT-NC``, ``2TNAP``,
        ``2TFM-8GB``, ...) or a :class:`MethodSpec`.  Oracle-disk
        methods (``OR*``) are rejected: they need the future.
    machine:
        The machine configuration this tenant runs on.
    prefill:
        Pages assumed already cached when the stream starts (the warm
        start).  For offline parity with ``run_method(warm_start=True)``
        pass :func:`repro.sim.prefill.warm_start_pages` of the full
        sequence; an online deployment passes whatever its bootstrap
        knows.
    warmup_s:
        Cold-start window excluded from the reported metrics; must be a
        whole number of periods, exactly as in ``engine.run``.
    expect_writes:
        Declare up front that the stream will carry writes.  Write-back
        flushing interleaves with the access stream, so write streams
        replay through the scalar loop.  Feeding a write without this
        flag is an error (the fast paths have already classified
        earlier accesses under read-only rules).
    max_buffered:
        Backpressure cap on the pending-access buffer (accesses fed but
        not yet proven replayable).  ``feed`` raises a clear
        ``SimulationError`` when a batch would push the buffer past the
        cap; the caller should ``advance`` the watermark (or slow the
        producer) and retry.  ``None`` (the default) means unbounded.
    """

    def __init__(
        self,
        method: Union[str, MethodSpec],
        machine: MachineConfig,
        *,
        prefill: Optional[Sequence[int]] = None,
        warmup_s: float = 0.0,
        expect_writes: bool = False,
        label: Optional[str] = None,
        max_buffered: Optional[int] = None,
    ) -> None:
        spec = parse_method(method) if isinstance(method, str) else method
        if spec.disk == "OR":
            raise SimulationError(
                "oracle-disk methods need future knowledge and cannot stream"
            )
        self.spec = spec
        self.machine = machine
        period = machine.manager.period_s
        if warmup_s < 0:
            raise SimulationError("warm-up must be non-negative")
        if warmup_s and abs(warmup_s / period - round(warmup_s / period)) > 1e-9:
            raise SimulationError("warm-up must be a whole number of periods")
        self.warmup_s = warmup_s
        self.expect_writes = bool(expect_writes)
        if max_buffered is not None and max_buffered < 1:
            raise SimulationError("max_buffered must be positive (or None)")
        self.max_buffered = max_buffered

        prefill = list(prefill) if prefill else []
        manager: Optional[JointPowerManager] = None
        if spec.is_joint:
            manager = JointPowerManager(
                machine,
                enforce_constraints=spec.enforce_constraints,
                adapt_memory=spec.adapt_memory,
                adapt_timeout=spec.adapt_timeout,
            )
            memory = spec.build_memory_system(machine)
            memory.resize(0.0, manager.memory_bytes)
            if prefill:
                memory.prefill(prefill)
                manager.prefill(prefill)
            self._engine = SimulationEngine(
                machine,
                memory,
                joint_manager=manager,
                label=label or spec.label,
            )
        else:
            policy = spec.build_disk_policy(machine)
            memory = spec.build_memory_system(machine)
            memory.prefill(prefill)
            self._engine = SimulationEngine(
                machine,
                memory,
                disk_policy=policy,
                label=label or spec.label,
            )
        self._manager = manager
        self._memory = memory

        # --- replay mode, mirroring kernels.select_mode ------------------
        if not kernels_enabled():
            self.replay_mode = STREAM_SCALAR
        elif manager is None and type(memory) is DisableMemorySystem:
            self.replay_mode = (
                STREAM_SCALAR if self.expect_writes else STREAM_DISABLE
            )
        elif manager is not None:
            if self.expect_writes:
                self.replay_mode = STREAM_SCALAR
            elif type(memory) is NapMemorySystem:
                self.replay_mode = STREAM_EPOCH
            else:
                self.replay_mode = STREAM_SCALAR
        elif supports_profiled_replay(memory):
            if self.expect_writes:
                self.replay_mode = STREAM_WRITES
            elif kernels._policy_is_request_blind(
                self._engine.policy
            ) and kernels._batchable_disk(self._engine.disk):
                self.replay_mode = STREAM_MISSRUN
            else:
                self.replay_mode = STREAM_VECTORIZED
        else:
            self.replay_mode = STREAM_SCALAR

        # The incremental Mattson pass: the same tracker, prefill and page
        # sequence build_profile would run offline, so the depths handed
        # to the kernels are identical to a TraceProfile's.  The disable
        # mode needs none: its residency oracle is the live bank map.
        self._tracker: Optional[StackDistanceTracker] = None
        if self.replay_mode in (
            STREAM_EPOCH,
            STREAM_VECTORIZED,
            STREAM_MISSRUN,
            STREAM_WRITES,
        ):
            self._tracker = StackDistanceTracker()
            if prefill:
                self._tracker.access_array(prefill)

        # --- engine state, initialized exactly as engine.run does --------
        engine = self._engine
        engine.last_replay_mode = self.replay_mode
        engine.disk.set_timeout(0.0, engine._initial_timeout())
        st = _ReplayState()
        st.metrics = MetricsCollector(
            period_s=period,
            long_latency_threshold_s=machine.manager.long_latency_threshold_s,
            aggregation_window_s=machine.manager.aggregation_window_s,
        )
        from repro.cache.readahead import ReadaheadClusterer
        from repro.sim.engine import SEQUENTIAL_MERGE_WINDOW_S

        st.clusterer = ReadaheadClusterer(
            merge_window_s=SEQUENTIAL_MERGE_WINDOW_S
        )
        st.has_writes = self.expect_writes
        st.duration_s = math.inf  # pinned down at close()
        st.warmup_s = warmup_s
        st.period_s = period
        st.next_flush = engine.flush_interval_s
        st.next_boundary = period
        st.last_flush_page = -2
        st.last_miss_page = -2
        st.last_miss_time = -np.inf
        st.current_timeout = engine.disk.timeout_s
        st.mem_mark = memory.energy.snapshot() if warmup_s == 0 else None
        st.disk_mark = engine.disk.energy.snapshot() if warmup_s == 0 else None
        self._st = st

        # Epoch-kernel resident-count invariant (see kernels.replay_epoch).
        self._resident = len(memory.cache)

        # --- pending-access ring -----------------------------------------
        self._times = np.empty(_INITIAL_BUFFER, dtype=np.float64)
        self._pages = np.empty(_INITIAL_BUFFER, dtype=np.int64)
        self._writes = (
            np.zeros(_INITIAL_BUFFER, dtype=bool) if self.expect_writes else None
        )
        self._depths = (
            np.empty(_INITIAL_BUFFER, dtype=np.int64)
            if self._tracker is not None
            else None
        )
        self._lo = 0  # first unprocessed access
        self._hi = 0  # end of buffered data

        #: Highest time the stream has vouched for: no future access may
        #: precede it (monotonic-time validation).
        self.watermark = 0.0
        self._last_processed_time = -math.inf
        # Where the offline close attributes the final cluster flush: the
        # metrics (collector, open period) after the last processed access.
        self._flush_metrics: Optional[MetricsCollector] = None
        self._flush_period = None
        self._decisions_seen = 0
        self._closed = False
        #: Telemetry counters.
        self.accesses_fed = 0
        self.accesses_processed = 0
        self.accesses_dropped = 0
        self.batches = 0

    # --- public API -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def decisions(self) -> List[PeriodDecision]:
        """Every period decision emitted so far (joint methods)."""
        if self._manager is None:
            return []
        return list(self._manager.decisions)

    @property
    def memory_bytes(self) -> int:
        return self._memory.capacity_bytes

    @property
    def timeout_s(self) -> Optional[float]:
        return self._st.current_timeout

    def feed(
        self,
        times,
        pages,
        writes=None,
    ) -> List[PeriodDecision]:
        """Consume one access batch; return the decisions it unlocked.

        ``times`` must be finite, non-decreasing and must not precede
        the stream's :attr:`watermark` (ties allowed); ``pages`` must be
        non-negative, as :class:`~repro.traces.trace.Trace` requires.
        Empty batches are valid no-ops.  ``writes`` (optional bool array) requires
        ``expect_writes=True`` when any flag is set.
        """
        self._require_open()
        times = np.ascontiguousarray(times, dtype=np.float64)
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        if times.ndim != 1 or pages.ndim != 1 or times.size != pages.size:
            raise SimulationError("times and pages must be equal-length 1-D")
        before = self._decision_count()
        self.batches += 1
        if times.size == 0:
            return self._new_decisions(before)
        if not bool(np.all(np.isfinite(times))):
            raise SimulationError("batch times must be finite")
        if times.size > 1 and bool(np.any(np.diff(times) < 0)):
            raise SimulationError("batch times must be non-decreasing")
        if bool(np.any(pages < 0)):
            raise SimulationError("page numbers must be non-negative")
        if float(times[0]) < self.watermark - 1e-12:
            raise SimulationError(
                f"batch starts at {float(times[0]):.6f}s, before the stream "
                f"watermark {self.watermark:.6f}s (time must be monotonic)"
            )
        write_flags = None
        if writes is not None:
            write_flags = np.ascontiguousarray(writes, dtype=bool)
            if write_flags.shape != times.shape:
                raise SimulationError("writes must align with times")
            if bool(write_flags.any()) and not self.expect_writes:
                raise SimulationError(
                    "stream was opened read-only (expect_writes=False) but "
                    "the batch carries writes"
                )
        self._append(times, pages, write_flags)
        self.accesses_fed += int(times.size)
        self.watermark = float(times[-1])
        self._pump()
        return self._new_decisions(before)

    def advance(self, now: float) -> List[PeriodDecision]:
        """Vouch that no access before ``now`` is still to come.

        Moves the watermark without feeding data, letting period
        boundaries in an idle stream fire (an online controller still
        re-decides every period).  Boundaries past the last access fire
        only while no read-ahead cluster is unresolved -- see the module
        docstring -- so a decision may defer to the next ``feed`` or to
        ``close``.
        """
        self._require_open()
        now = float(now)
        if now < self.watermark - 1e-12:
            raise SimulationError(
                f"cannot advance to {now:.6f}s: the stream is already at "
                f"{self.watermark:.6f}s"
            )
        before = self._decision_count()
        self.watermark = max(self.watermark, now)
        self._pump()
        return self._new_decisions(before)

    def close(self, duration_s: Optional[float] = None) -> SimResult:
        """Finish the run; returns the offline-identical ``SimResult``.

        The default duration rounds the watermark up to a whole number
        of periods, exactly as ``engine.run`` rounds the trace duration.
        An explicit ``duration_s`` must not precede the watermark
        (accesses at or past the duration are dropped, mirroring the
        offline loops' cutoff -- but only ones the stream has not
        already replayed, which the watermark rule guarantees).
        """
        self._require_open()
        engine = self._engine
        st = self._st
        period = st.period_s
        if duration_s is None:
            duration_s = max(int(np.ceil(self.watermark / period)), 1) * period
        duration_s = float(duration_s)
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        if duration_s < self.watermark - 1e-12:
            raise SimulationError(
                f"duration {duration_s:.6f}s precedes the stream watermark "
                f"{self.watermark:.6f}s"
            )
        if self.warmup_s >= duration_s:
            raise SimulationError("warm-up must be within the duration")
        st.duration_s = duration_s

        # Replay the pending tail below the duration cutoff, then the
        # engine.run post-loop sequence, verbatim.
        cutoff = self._lo + int(
            np.searchsorted(
                self._times[self._lo : self._hi], duration_s, side="left"
            )
        )
        self._drain_pending(cutoff, duration_s)
        self.accesses_dropped += self._hi - self._lo
        self._lo = self._hi

        if st.clusterer.flush() is not None:
            # Offline, this on_request fires before the trailing drain:
            # it lands in the period that was current after the last
            # processed access, on whichever collector was live then.
            metrics = self._flush_metrics
            period_rec = self._flush_period
            if metrics is None or period_rec is None:
                raise SimulationError(
                    "read-ahead cluster without a processed access"
                )
            metrics.total_disk_requests += 1
            period_rec.disk_requests += 1

        engine._drain_events(st, duration_s)
        metrics = st.metrics
        last_closed = (
            metrics.periods[-1].end_s
            if metrics.periods
            else metrics.current_period_start
        )
        if not metrics.periods or last_closed < duration_s - 1e-9:
            metrics.close_period(
                duration_s,
                memory_bytes=self._memory.capacity_bytes,
                timeout_s=st.current_timeout,
            )

        if st.has_writes:
            remaining = (
                self._memory.take_pending_flushes() + self._memory.flush_all()
            )
            if remaining:
                engine._flush(
                    duration_s, remaining, metrics, st.last_flush_page
                )

        engine.disk.finalize(duration_s)
        self._memory.finalize(duration_s)

        if st.mem_mark is None or st.disk_mark is None:
            raise SimulationError("warm-up window never closed")
        memory_energy = self._memory.energy.minus(st.mem_mark)
        disk_energy = engine.disk.energy.minus(st.disk_mark)
        observed_s = duration_s - self.warmup_s
        self._closed = True
        manager = self._manager
        return SimResult(
            label=engine.label,
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
            replay_mode=self.replay_mode,
        )

    # --- buffering --------------------------------------------------------

    def _append(self, times, pages, write_flags) -> None:
        n = int(times.size)
        live = self._hi - self._lo
        if self.max_buffered is not None and live + n > self.max_buffered:
            raise SimulationError(
                f"stream buffer over capacity: {live} pending access(es) + "
                f"{n} in this batch exceed max_buffered={self.max_buffered}; "
                f"advance() the watermark past the pending epoch (or raise "
                f"the cap) before feeding more"
            )
        if self._hi + n > self._times.size:
            size = self._times.size
            while size < live + n:
                size *= 2
            self._reallocate(size)
        hi = self._hi
        self._times[hi : hi + n] = times
        self._pages[hi : hi + n] = pages
        if self._writes is not None:
            if self._writes.size < self._times.size:
                grown = np.zeros(self._times.size, dtype=bool)
                grown[: self._writes.size] = self._writes
                self._writes = grown
            self._writes[hi : hi + n] = (
                False if write_flags is None else write_flags
            )
        if self._depths is not None:
            assert self._tracker is not None
            self._depths[hi : hi + n] = self._tracker.access_array(pages)
        self._hi = hi + n

    def _reallocate(self, size: int) -> None:
        """Grow the buffers, compacting processed entries away."""
        lo, hi = self._lo, self._hi
        for name in ("_times", "_pages", "_writes", "_depths"):
            old = getattr(self, name)
            if old is None:
                continue
            fresh = np.empty(size, dtype=old.dtype)
            if name == "_writes":
                fresh[:] = False
            fresh[: hi - lo] = old[lo:hi]
            setattr(self, name, fresh)
        self._hi = hi - lo
        self._lo = 0

    # --- the pump ---------------------------------------------------------

    def _pump(self) -> None:
        """Replay everything the watermark has proven complete."""
        if self.replay_mode == STREAM_SCALAR:
            self._pump_scalar()
        else:
            self._pump_fast()

    def _pump_fast(self) -> None:
        """Epoch/vectorized modes: fire each proven-complete boundary.

        A boundary ``B`` is safe once a buffered access in
        ``[B, watermark)`` witnesses it (that access is certain to be
        replayed: every valid close duration is ``>= watermark``, so the
        offline twin fires ``B`` in-loop at exactly that access).  With
        no witness, an idle-stream fire is exact only while the
        read-ahead clusterer is empty; otherwise the boundary waits.
        """
        st = self._st
        engine = self._engine
        while True:
            boundary = st.next_boundary
            cut = self._lo + int(
                np.searchsorted(
                    self._times[self._lo : self._hi],
                    boundary,
                    side=_BOUNDARY_SIDE,
                )
            )
            witnessed = (
                cut < self._hi and float(self._times[cut]) < self.watermark
            )
            if not witnessed and not (
                self.watermark > boundary and st.clusterer._pending is None
            ):
                break
            self._replay_span(self._lo, cut, math.inf)
            self._lo = cut
            engine._drain_events(st, boundary)
            self._resident = min(self._resident, self._memory.capacity_pages)
        if self._manager is None:
            # Manager-less modes can also drain mid-period: with no
            # epoch decisions pending, replaying any prefix strictly
            # below the watermark is bit-exact even when it splits a hit
            # run -- dynamic energy is an integer-count product, the
            # clock advance is idempotent, and the per-bank/static
            # accruals, LRU touches and metrics counters are all
            # per-access sequential, so two sub-runs charge exactly what
            # the unsplit run charges.  At this point every buffered
            # access below the watermark also lies below the pending
            # boundary (otherwise it would have witnessed it above), so
            # the span cannot cross an unfired period close.  This keeps
            # the pending ring bounded by the feed granularity instead
            # of a full period (~15 M accesses at scale=1).
            cut = self._lo + int(
                np.searchsorted(
                    self._times[self._lo : self._hi],
                    self.watermark,
                    side="left",
                )
            )
            if cut > self._lo:
                self._replay_span(self._lo, cut, math.inf)
                self._lo = cut

    def _pump_scalar(self) -> None:
        """Scalar mode: replay accesses strictly below the watermark.

        An access at exactly the watermark is held back -- a
        default-duration close could still drop it.  Trailing events
        (boundaries and write-back flushes past the last access) fire
        only while the clusterer is empty, same as the fast pump.
        """
        st = self._st
        cut = self._lo + int(
            np.searchsorted(
                self._times[self._lo : self._hi], self.watermark, side="left"
            )
        )
        self._replay_span(self._lo, cut, math.inf)
        self._lo = cut
        if st.clusterer._pending is None:
            self._engine._drain_events(st, self.watermark)

    def _drain_pending(self, cutoff: int, duration_s: float) -> None:
        """Close-time tail: replay ``[lo, cutoff)`` exactly as the
        offline loops replay their final accesses."""
        st = self._st
        engine = self._engine
        if self.replay_mode == STREAM_SCALAR:
            self._replay_span(self._lo, cutoff, duration_s)
            self._lo = cutoff
            return
        # Mirror kernels.replay_epoch's loop over the remaining tail:
        # boundaries fire only when an access at/past them remains.
        while self._lo < cutoff:
            boundary = st.next_boundary
            if boundary > st.duration_s:
                end = cutoff
            else:
                end = self._lo + int(
                    np.searchsorted(
                        self._times[self._lo : self._hi],
                        boundary,
                        side=_BOUNDARY_SIDE,
                    )
                )
                end = min(end, cutoff)
            if end > self._lo:
                self._replay_span(self._lo, end, duration_s)
                self._lo = end
                if self._lo >= cutoff:
                    break
            engine._drain_events(st, boundary)
            self._resident = min(self._resident, self._memory.capacity_pages)

    # --- replay spans -----------------------------------------------------

    def _replay_span(self, lo: int, hi: int, duration_s: float) -> None:
        """Replay buffered accesses ``[lo, hi)`` through the engine."""
        if hi <= lo:
            return
        st = self._st
        # Trimmed views: [0, _hi) is globally sorted (the stream is
        # monotonic and compaction preserves order), so the kernels'
        # internal searchsorted calls stay correct; beyond _hi the
        # buffers hold uninitialized garbage.
        times = self._times[: self._hi]
        pages = self._pages[: self._hi]
        if self.replay_mode == STREAM_EPOCH:
            self._resident = kernels._replay_epoch_segment(
                self._engine,
                st,
                self._memory,
                self._manager,
                times,
                pages,
                self._depths[: self._hi],
                lo,
                hi,
                duration_s,
                self._resident,
            )
        elif self.replay_mode == STREAM_VECTORIZED:
            self._replay_span_vectorized(lo, hi, duration_s)
        elif self.replay_mode == STREAM_MISSRUN:
            self._replay_span_missrun(lo, hi, duration_s)
        elif self.replay_mode == STREAM_WRITES:
            self._replay_span_writes(lo, hi, duration_s)
        elif self.replay_mode == STREAM_DISABLE:
            kernels._replay_disable_span(
                self._engine, st, self._memory, times, pages, lo, hi
            )
        else:
            self._replay_span_scalar(lo, hi)
        self.accesses_processed += hi - lo
        self._last_processed_time = float(self._times[hi - 1])
        self._flush_metrics = st.metrics
        self._flush_period = st.metrics._current

    def _replay_span_vectorized(
        self, lo: int, hi: int, duration_s: float
    ) -> None:
        """The replay_vectorized inner loop over one buffered span."""
        st = self._st
        engine = self._engine
        memory = self._memory
        times = self._times[: self._hi]
        pages = self._pages[: self._hi]
        window = self._depths[lo:hi]
        # profile.hit_mask's exact rule: hit iff 0 <= depth < capacity.
        hits = (window >= 0) & (window < memory.capacity_pages)
        miss_indices = np.flatnonzero(~hits) + lo
        drain = engine._drain_events
        serve_miss = engine._serve_miss
        pos = lo
        for m in miss_indices.tolist():
            if pos < m:
                kernels._consume_hits(
                    engine, st, memory, times, pages, pos, m, duration_s
                )
            now = float(times[m])
            page = int(pages[m])
            drain(st, now)
            memory.charge_page_access(now, page)
            serve_miss(st, now, page)
            pos = m + 1
        if pos < hi:
            kernels._consume_hits(
                engine, st, memory, times, pages, pos, hi, duration_s
            )

    def _replay_span_missrun(self, lo: int, hi: int, duration_s: float) -> None:
        """The replay_missrun inner loop over one buffered span.

        Same classification as the vectorized span (the incremental
        tracker's depths stand in for the profile); runs of consecutive
        misses batch through the same boundary-splitting helpers the
        offline ``"missrun"`` replay uses.
        """
        st = self._st
        engine = self._engine
        memory = self._memory
        times = self._times[: self._hi]
        pages = self._pages[: self._hi]
        window = self._depths[lo:hi]
        hits = (window >= 0) & (window < memory.capacity_pages)
        miss_indices = np.flatnonzero(~hits) + lo
        pos = lo
        for run_lo, run_hi in kernels._miss_runs(miss_indices):
            if pos < run_lo:
                kernels._consume_hits(
                    engine, st, memory, times, pages, pos, run_lo, duration_s
                )
            kernels._serve_missrun_span(
                engine, st, memory, times, pages, run_lo, run_hi, duration_s
            )
            pos = run_hi
        if pos < hi:
            kernels._consume_hits(
                engine, st, memory, times, pages, pos, hi, duration_s
            )

    def _replay_span_writes(self, lo: int, hi: int, duration_s: float) -> None:
        """The replay_writes inner loop over one buffered span.

        Same classification as the vectorized span (the incremental
        tracker's depths stand in for the profile; write-allocate keeps
        the LRU evolution read-identical), with misses, dirty evictions
        and flush sweeps through the exact scalar path.
        """
        memory = self._memory
        times = self._times[: self._hi]
        pages = self._pages[: self._hi]
        writes = self._writes[: self._hi]
        window = self._depths[lo:hi]
        hits = (window >= 0) & (window < memory.capacity_pages)
        miss_indices = np.flatnonzero(~hits) + lo
        kernels._replay_writes_inner(
            self._engine, self._st, memory, times, pages, writes,
            miss_indices, lo, hi, duration_s,
        )

    def _replay_span_scalar(self, lo: int, hi: int) -> None:
        """The engine's per-access reference loop over one buffered span."""
        st = self._st
        engine = self._engine
        memory = self._memory
        manager = self._manager
        has_writes = st.has_writes
        drain_events = engine._drain_events
        serve_miss = engine._serve_miss
        times = self._times[lo:hi].tolist()
        pages = self._pages[lo:hi].tolist()
        writes = (
            self._writes[lo:hi].tolist()
            if has_writes and self._writes is not None
            else [False] * (hi - lo)
        )
        for now, page, is_write in zip(times, pages, writes):
            drain_events(st, now)
            if manager is not None:
                manager.record_access(now, page)
            if has_writes:
                hit = memory.access_rw(now, page, is_write)
                pending = memory.take_pending_flushes()
                if pending:
                    st.last_flush_page = engine._flush(
                        now, pending, st.metrics, st.last_flush_page
                    )
                if is_write:
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

    # --- helpers ----------------------------------------------------------

    def _decision_count(self) -> int:
        return len(self._manager.decisions) if self._manager is not None else 0

    def _new_decisions(self, before: int) -> List[PeriodDecision]:
        if self._manager is None:
            return []
        fresh = self._manager.decisions[before:]
        self._decisions_seen = len(self._manager.decisions)
        return list(fresh)

    def _require_open(self) -> None:
        if self._closed:
            raise SimulationError("the stream is closed")

    @property
    def pending_accesses(self) -> int:
        """Buffered accesses awaiting a proven-complete epoch."""
        return self._hi - self._lo
