"""The simulated drive: power states, wake latency and FCFS queueing.

Requests are submitted in time order.  The drive keeps the absolute time
its queued work completes (``busy_until``); a request arriving earlier
waits FCFS.  Spin-down is governed by a timeout that the owning policy
sets (and may change at any event); spin-up is on demand, delaying the
waking request by the spin-up time plus any spin-down still in flight
(paper Section IV-D).

Accounting is lump-based: service time is charged as active when the
request is accepted, each spin-down round trip is charged the spec's
transition energy when initiated, standby time accrues between the end of
a spin-down and the start of the next spin-up, and idle time is the
remainder at :meth:`finalize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from typing import TYPE_CHECKING

from repro.config.disk_spec import DiskSpec
from repro.disk.energy import DiskEnergy
from repro.disk.events import DiskEventLog
from repro.disk.service import ServiceModel
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.disk.positioned import PositionedServiceModel


@dataclass(frozen=True)
class RequestResult:
    """Timing of one served disk request."""

    arrival_s: float
    start_s: float
    finish_s: float
    #: Portion of the wait caused by spin-down/spin-up (0 when spinning).
    wake_delay_s: float

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s


class SimDisk:
    """Power-managed drive fed time-ordered requests."""

    def __init__(
        self,
        spec: DiskSpec,
        service: ServiceModel,
        positioned: Optional["PositionedServiceModel"] = None,
        events: Optional[DiskEventLog] = None,
    ) -> None:
        if service.spec is not spec and service.spec != spec:
            raise SimulationError("service model was built for a different spec")
        self.spec = spec
        self.service = service
        #: Optional geometry-backed pricing; used when a request carries
        #: its page address (see :mod:`repro.disk.positioned`).
        self.positioned = positioned
        #: Optional state-transition log (see :mod:`repro.disk.events`);
        #: the verification oracle re-integrates energy from it.
        self.events = events
        self.energy = DiskEnergy()
        self._now = 0.0
        self._busy_until = 0.0
        self._timeout: Optional[float] = None  # None = never spin down
        self._timeout_since = 0.0
        self._spun_down = False
        self._spin_down_start = 0.0
        #: Count of spin-downs whose wake had not happened by finalize.
        self._pending_wake = False
        #: Passive (idle/standby) time before this point is already
        #: accounted -- set by :meth:`checkpoint`.
        self._passive_mark = 0.0

    # --- inspection -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def busy_until(self) -> float:
        return self._busy_until

    @property
    def is_spun_down(self) -> bool:
        return self._spun_down

    @property
    def timeout_s(self) -> Optional[float]:
        return self._timeout

    @property
    def spin_down_end(self) -> float:
        return self._spin_down_start + self.spec.spin_down_time_s

    # --- control ----------------------------------------------------------------

    def set_timeout(self, now: float, timeout_s: Optional[float]) -> None:
        """Install a new spin-down timeout, effective from ``now``.

        ``None`` (or infinity) disables spin-down.  The timeout applies to
        the idle period in progress too: if the disk has already been idle
        longer than the new timeout, it spins down at ``now``.
        """
        self.advance(now)
        if timeout_s is not None and timeout_s < 0:
            raise SimulationError("timeout must be non-negative")
        if timeout_s is not None and math.isinf(timeout_s):
            timeout_s = None
        self._timeout = timeout_s
        self._timeout_since = now
        if self.events is not None:
            self.events.record_set_timeout(now, timeout_s)

    def advance(self, now: float) -> None:
        """Move the clock to ``now``, spinning down if the timeout expired."""
        if now < self._now - 1e-9:
            raise SimulationError(f"disk time went backwards: {now} < {self._now}")
        self._now = max(self._now, now)
        if self._spun_down or self._timeout is None:
            return
        idle_start = self._busy_until
        candidate = max(idle_start + self._timeout, self._timeout_since)
        if candidate < self._now:
            self._initiate_spin_down(candidate)

    def _initiate_spin_down(self, at_time: float) -> None:
        self._spun_down = True
        self._spin_down_start = at_time
        self._pending_wake = True
        # Idle time from end of work to the spin-down decision.
        idle_from = max(self._busy_until, self._passive_mark)
        if at_time > idle_from:
            self.energy.add_time("idle", at_time - idle_from)
        # Spin-down time now; spin-up time is added when a request wakes
        # the drive.  The lump round-trip energy is charged per cycle here
        # (a cycle still spun down at finalize is slightly overcharged).
        self.energy.add_time("transition", self.spec.spin_down_time_s)
        self.energy.spin_down_cycles += 1
        if self.events is not None:
            self.events.record_spin_down(at_time)

    # --- requests ------------------------------------------------------------------

    def submit(
        self,
        now: float,
        num_pages: int,
        sequential: bool = False,
        page: Optional[int] = None,
    ) -> RequestResult:
        """Serve one request arriving at ``now``; returns its timing.

        With a positioned service model installed and ``page`` given, the
        request is priced from the head's actual position; otherwise the
        calibrated analytic model (and the ``sequential`` flag) applies.
        """
        self.advance(now)
        if self.positioned is not None and page is not None:
            service_time = self.positioned.service_time(page, num_pages)
        else:
            service_time = self.service.service_time(num_pages, sequential)
        woke = self._spun_down
        if self._spun_down:
            spin_done = self.spin_down_end
            wake_start = max(now, spin_done)
            standby_from = max(spin_done, self._passive_mark)
            if wake_start > standby_from:
                self.energy.add_time("standby", wake_start - standby_from)
            ready = wake_start + self.spec.spin_up_time_s
            self.energy.add_time("transition", self.spec.spin_up_time_s)
            wake_delay = ready - now
            start = ready
            self._spun_down = False
            self._pending_wake = False
        else:
            # Idle stretch (if any) between the end of previous work and
            # this arrival counts as idle time.
            idle_from = max(self._busy_until, self._passive_mark)
            if now > idle_from:
                self.energy.add_time("idle", now - idle_from)
            wake_delay = 0.0
            start = max(now, self._busy_until)
        finish = start + service_time
        self._busy_until = finish
        self.energy.add_time("active", service_time)
        self.energy.requests += 1
        self.energy.bytes_transferred += num_pages * self.service.page_bytes
        if self.events is not None:
            self.events.record_submit(
                arrival_s=now,
                start_s=start,
                finish_s=finish,
                wake_delay_s=wake_delay,
                service_s=service_time,
                woke=woke,
            )
        return RequestResult(
            arrival_s=now, start_s=start, finish_s=finish, wake_delay_s=wake_delay
        )

    def submit_run(self, times, services):
        """Serve a time-ordered run of single-page requests in one pass.

        ``times`` and ``services`` are equal-length Python lists: arrival
        times and precomputed service times (the caller resolves the
        sequential-merge pricing, see
        :func:`repro.sim.kernels._miss_run_services`).  Equivalent to one
        :meth:`submit` call per element with ``num_pages=1`` -- the same
        spin-down decisions, the same energy-bucket additions in the same
        floating-point order -- but with the drive state and the
        :class:`DiskEnergy` time buckets held in local accumulators for
        the whole run and written back once.  The caller must guarantee
        no timeout change, checkpoint or external :meth:`advance` falls
        inside the run (the miss-run kernel splits at those).

        Returns ``(latencies, wake_delays)`` as equal-length lists.
        """
        return self._serve_run(times, services, False)

    def submit_until_wake(self, times, services):
        """:meth:`submit_run` up to the first request that would wake the
        disk, which it leaves unserved.

        The drive still advances to that request's arrival, spinning down
        if the timeout expired before it, so a :meth:`submit` of it next
        is exactly the call the per-request loop makes.  Returns the
        served prefix's ``(latencies, wake_delays)``: their length is the
        number of requests served.
        """
        return self._serve_run(times, services, True)

    def _serve_run(self, times, services, stop_at_wake: bool):
        n = len(times)
        if n == 0:
            return [], []
        energy = self.energy
        events = self.events
        timeout = self._timeout
        timeout_since = self._timeout_since
        passive = self._passive_mark
        spin_down_time = self.spec.spin_down_time_s
        spin_up_time = self.spec.spin_up_time_s
        # add_time clamps at zero; the constants are validated non-negative
        # once here so the unguarded inline adds below stay identical.
        spin_down_add = max(spin_down_time, 0.0)
        spin_up_add = max(spin_up_time, 0.0)
        now_clock = self._now
        busy_until = self._busy_until
        spun_down = self._spun_down
        spin_down_start = self._spin_down_start
        pending_wake = self._pending_wake
        active = energy.active_s
        idle = energy.idle_s
        standby = energy.standby_s
        transition = energy.transition_s
        cycles = energy.spin_down_cycles
        latencies = [0.0] * n
        wake_delays = [0.0] * n
        has_timeout = timeout is not None
        pending_submits = [] if events is not None else None
        # The conditional expressions below are builtin max() spelled out
        # (identical values for the non-NaN inputs this loop sees); the
        # hot loop avoids ~5 function calls per element this way.
        for i in range(n):
            now = times[i]
            service_time = services[i]
            # advance(now): ratchet the clock, spin down on expiry.
            if now < now_clock - 1e-9:
                raise SimulationError(
                    f"disk time went backwards: {now} < {now_clock}"
                )
            if now > now_clock:
                now_clock = now
            if has_timeout and not spun_down:
                candidate = busy_until + timeout
                if candidate < timeout_since:
                    candidate = timeout_since
                if candidate < now_clock:
                    spun_down = True
                    spin_down_start = candidate
                    pending_wake = True
                    idle_from = busy_until if busy_until >= passive else passive
                    if candidate > idle_from:
                        idle += candidate - idle_from
                    transition += spin_down_add
                    cycles += 1
                    if events is not None:
                        if pending_submits:
                            events.record_submit_run(pending_submits)
                            pending_submits = []
                        events.record_spin_down(candidate)
            # submit(now, 1): wake or idle path, then service.
            if spun_down:
                if stop_at_wake:
                    n = i
                    del latencies[n:], wake_delays[n:]
                    break
                woke = True
                spin_done = spin_down_start + spin_down_time
                wake_start = now if now >= spin_done else spin_done
                standby_from = spin_done if spin_done >= passive else passive
                if wake_start > standby_from:
                    standby += wake_start - standby_from
                ready = wake_start + spin_up_time
                transition += spin_up_add
                wake_delay = ready - now
                start = ready
                spun_down = False
                pending_wake = False
            else:
                woke = False
                idle_from = busy_until if busy_until >= passive else passive
                if now > idle_from:
                    idle += now - idle_from
                wake_delay = 0.0
                start = now if now >= busy_until else busy_until
            finish = start + service_time
            busy_until = finish
            active += service_time
            latencies[i] = finish - now
            wake_delays[i] = wake_delay
            if pending_submits is not None:
                pending_submits.append(
                    (now, start, finish, wake_delay, service_time, woke)
                )

        if events is not None and pending_submits:
            events.record_submit_run(pending_submits)
        self._now = now_clock
        self._busy_until = busy_until
        self._spun_down = spun_down
        self._spin_down_start = spin_down_start
        self._pending_wake = pending_wake
        energy.active_s = active
        energy.idle_s = idle
        energy.standby_s = standby
        energy.transition_s = transition
        energy.spin_down_cycles = cycles
        energy.add_requests(n, n * self.service.page_bytes)
        return latencies, wake_delays

    # --- shutdown ---------------------------------------------------------------------

    def checkpoint(self, now: float) -> None:
        """Account all passive (idle/standby) time up to ``now``.

        Lets a caller snapshot the energy counters mid-run (e.g. at the
        end of a warm-up window) without double counting later.
        """
        self.advance(now)
        if self._spun_down:
            spin_done = self.spin_down_end
            standby_from = max(spin_done, self._passive_mark)
            if now > standby_from:
                self.energy.add_time("standby", now - standby_from)
        else:
            idle_from = max(self._busy_until, self._passive_mark)
            if now > idle_from:
                self.energy.add_time("idle", now - idle_from)
        self._passive_mark = max(self._passive_mark, now)
        if self.events is not None:
            self.events.record_checkpoint(now)

    def finalize(self, end_time: float) -> None:
        """Account the tail of the timeline up to ``end_time``."""
        self.checkpoint(end_time)
        self._now = max(self._now, end_time)
