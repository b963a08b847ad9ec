"""The streaming power-manager core: offline replay, fed incrementally.

A :class:`StreamingManager` drives the existing simulation machinery --
the Mattson :class:`~repro.cache.stack_distance.StackDistanceTracker`,
:meth:`~repro.cache.predictor.ResizePredictor.record_array` and the
:class:`~repro.core.joint.JointPowerManager` -- from *incremental access
batches* instead of a complete trace.  ``feed(times, pages)`` buffers
the batch, replays every epoch the new data completes through the
engine's span kernels, and returns the period decisions that firing
those boundaries produced.  ``close()`` finishes the run exactly the way
:meth:`SimulationEngine.run` does and returns a ``SimResult``.

Parity contract (enforced by ``CHECKS["parity"]``'s stream scenario and
``tests/service/``): for any batch split of an access sequence,
``close()`` is **bit-identical** -- every energy figure, every per-period
counter, every ``PeriodDecision`` including candidate evaluations -- to
an offline ``engine.run`` of the same sequence with the same duration.
The streaming replay therefore never reorders or re-times a single
engine call; it only defers work until the incoming stream has proven
the epoch complete.  The joint manager decides once per period from
that period's log, so the stream hands the replay core whole epochs,
and one fire rule serves every replay mode:

* A period boundary ``B`` fires as soon as a buffered access at
  ``t >= B`` with a *later* access behind it guarantees the epoch is
  closed (the offline loops fire ``B`` when they reach that access).
  An access at exactly the stream's high-water mark is held back: a
  default-duration close could still drop it (the duration cutoff of
  :meth:`SimulationEngine._walk`), which would turn ``B`` into a
  trailing boundary with a different event order.
* With no such witness, ``B`` waits until the watermark is strictly
  past it (``feed`` or an idle ``advance(now)``).  Its epoch then
  replays, and ``B`` fires only if no read-ahead cluster is left in
  flight.  The offline close counts an unresolved cluster's request
  *before* trailing boundaries but *after* interior ones, and which
  case applies depends on accesses that have not arrived yet -- so
  that decision defers to the next ``feed`` or to ``close`` rather
  than risk a divergence.
* Manager-less runs have no decision to wait for: below the pending
  boundary they also replay every access strictly below the watermark,
  so their buffer holds one feed, not one period.
* The final cluster flush at ``close`` is attributed to the metrics
  period that was current after the last processed access -- exactly
  where the offline close's ``on_request`` lands -- even when idle
  boundaries were already fired past it.

The replay itself is :class:`~repro.sim.engine.SimulationEngine`'s
replay core -- the same state constructor, mode choice, span replayer,
boundary walk and run tail an offline ``engine.run`` uses; the stream
adds only the buffering, the watermark, the fire rule and telemetry.
Its ``replay_mode`` is ``"stream-"`` + the offline mode
(:func:`repro.sim.kernels.select_mode` with depths from an incremental
tracker): ``stream-epoch``, ``stream-missrun``, ``stream-vectorized``,
``stream-writes``, ``stream-disable`` or ``stream-scalar``.
Oracle-disk methods need future knowledge and are rejected.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cache.stack_distance import StackDistanceTracker
from repro.config.machine import MachineConfig
from repro.core.joint import PeriodDecision
from repro.errors import SimulationError
from repro.policies.registry import MethodSpec, parse_method
from repro.sim import kernels
from repro.sim.results import SimResult
from repro.sim.runner import build_engine
from repro.traces.trace import validate_accesses

_INITIAL_BUFFER = 1024

#: Which side of a period boundary an exactly-tied access belongs to
#: when the fire rule cuts the buffer.  ``"left"`` matches the scalar
#: loop (events drain before the access is recorded, so a tie goes to
#: the *next* epoch).  Module-level so the injected-bug tests can flip it
#: and prove ``CHECKS["parity"]`` catches the off-by-one.
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
        flushing interleaves with the access stream, so joint and
        disable-model write streams replay through the scalar loop.
        Feeding a write without this flag is an error (the fast paths
        have already classified earlier accesses under read-only rules).
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
        self._engine = engine = build_engine(
            spec, machine, prefill, label=label or spec.label
        )

        # The engine's replay core, exactly as engine.run starts it; the
        # stream always has depths at hand (its incremental tracker).
        self._st = engine._start(self.expect_writes, math.inf, warmup_s, True)
        self.replay_mode = "stream-" + self._st.mode
        engine.last_replay_mode = self.replay_mode

        # The incremental Mattson pass: the same tracker, prefill and page
        # sequence build_profile would run offline, so the depths handed
        # to the kernels are identical to a TraceProfile's.
        self._tracker: Optional[StackDistanceTracker] = None
        if kernels.reads_depths(self._st.mode):
            self._tracker = StackDistanceTracker()
            if prefill:
                self._tracker.access_array(prefill)

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
        self._bind()

        #: Highest time the stream has vouched for: no future access may
        #: precede it (monotonic-time validation).
        self.watermark = 0.0
        # Where the offline close attributes the final cluster flush: the
        # metrics (collector, open period) after the last processed access.
        self._flush_target = None
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
        if self._engine.manager is None:
            return []
        return list(self._engine.manager.decisions)

    @property
    def memory_bytes(self) -> int:
        return self._engine.memory.capacity_bytes

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
        Empty batches are valid no-ops.  ``writes`` (optional bool array)
        requires ``expect_writes=True`` when any flag is set.  Malformed
        batches raise ``SimulationError`` (:func:`validate_accesses`).
        """
        self._require_open()
        times = np.ascontiguousarray(times, dtype=np.float64)
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        write_flags = (
            None if writes is None else np.ascontiguousarray(writes, dtype=bool)
        )
        validate_accesses(times, pages, write_flags, SimulationError)
        before = self._decision_count()
        self.batches += 1
        if times.size == 0:
            return self._new_decisions(before)
        if float(times[0]) < self.watermark - 1e-12:
            raise SimulationError(
                f"batch starts at {float(times[0]):.6f}s, before the stream "
                f"watermark {self.watermark:.6f}s (time must be monotonic)"
            )
        if (
            write_flags is not None
            and bool(write_flags.any())
            and not self.expect_writes
        ):
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

        Moves the watermark without feeding data.  A boundary past the
        last access then fires only once ``now`` is strictly past it and
        only while no read-ahead cluster is pending -- see the module
        docstring.  A cluster stays pending from a miss until the next
        one, so this fires idle boundaries only for a tenant that has
        not missed yet: a tenant past its first miss gets its next
        decision at its next ``feed`` or at ``close``, not every period.
        """
        self._require_open()
        now = float(now)
        if not math.isfinite(now):
            raise SimulationError(
                f"cannot advance to {now}: times must be finite"
            )
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
        self._replay_tail()
        result = self._engine._finish(st, self._flush_target)
        self._closed = True
        return result

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
        self._bind()

    def _bind(self) -> None:
        """Point the replay state at trimmed views of the buffers.

        ``[0, _hi)`` is globally sorted (the stream is monotonic and
        compaction preserves order), so the kernels' searchsorted calls
        stay correct; beyond ``_hi`` the buffers hold uninitialized
        garbage.
        """
        st = self._st
        hi = self._hi
        st.times = self._times[:hi]
        st.pages = self._pages[:hi]
        st.writes = None if self._writes is None else self._writes[:hi]
        st.depths = None if self._depths is None else self._depths[:hi]

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
        """Replay everything the watermark has proven complete, firing
        each boundary by the one rule of the module docstring: a witness
        in ``[B, watermark)``, or a watermark past ``B`` and, once its
        epoch has replayed, an empty read-ahead clusterer."""
        st = self._st
        engine = self._engine
        while True:
            boundary = st.next_boundary
            cut = self._cut(boundary, _BOUNDARY_SIDE)
            witnessed = (
                cut < self._hi and float(self._times[cut]) < self.watermark
            )
            if not witnessed and self.watermark <= boundary:
                break
            self._replay(cut)
            if not witnessed and st.clusterer._pending is not None:
                break
            engine._drain_events(st, boundary)
            st.resident = min(st.resident, engine.memory.capacity_pages)
        if engine.manager is None:
            # No decision waits on the open epoch, so replay the rest
            # strictly below the watermark too.  Splitting a hit run is
            # bit-exact (dynamic energy is an integer-count product, the
            # clock advance is idempotent, the accruals, LRU touches and
            # counters are per-access sequential), and every such access
            # lies below the pending boundary, else it would have
            # witnessed it.  The ring holds one feed, not one period
            # (~15 M accesses at scale=1).
            self._replay(self._cut(self.watermark))

    def _cut(self, at_s: float, side: str = "left") -> int:
        """Index of the first pending access at (``side='left'``) or past
        (``'right'``) ``at_s``."""
        lo = self._lo
        return lo + int(
            np.searchsorted(self._times[lo : self._hi], at_s, side=side)
        )

    def _replay(self, hi: int) -> None:
        """Replay pending accesses ``[_lo, hi)`` as one engine span."""
        if hi > self._lo:
            self._engine._replay_span(self._st, self._lo, hi)
            self._processed(hi)

    def _replay_tail(self) -> None:
        """Close-time tail: walk every pending access below the duration
        epoch by epoch, exactly as the offline run walks its final
        accesses (:meth:`SimulationEngine._walk`), and drop the rest."""
        cut = self._engine._walk(self._st, self._lo, self._hi)
        if cut > self._lo:
            self._processed(cut)
        self.accesses_dropped += self._hi - cut
        self._lo = self._hi

    def _processed(self, hi: int) -> None:
        """Telemetry after replaying ``[_lo, hi)``."""
        metrics = self._st.metrics
        self.accesses_processed += hi - self._lo
        self._lo = hi
        self._flush_target = (metrics, metrics._current)

    # --- helpers ----------------------------------------------------------

    def _decision_count(self) -> int:
        manager = self._engine.manager
        return 0 if manager is None else len(manager.decisions)

    def _new_decisions(self, before: int) -> List[PeriodDecision]:
        if self._engine.manager is None:
            return []
        return list(self._engine.manager.decisions[before:])

    def _require_open(self) -> None:
        if self._closed:
            raise SimulationError("the stream is closed")

    @property
    def pending_accesses(self) -> int:
        """Buffered accesses awaiting a proven-complete epoch."""
        return self._hi - self._lo
