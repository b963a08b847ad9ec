"""State-transition log of the simulated drive.

:class:`~repro.disk.drive.SimDisk` can record every externally visible
state change -- request service, spin-down initiation, timeout changes and
passive-time checkpoints -- into a :class:`DiskEventLog`.  The log is the
ground truth the differential verifier integrates energy from
(:mod:`repro.verify.oracles`): a second, event-by-event derivation of the
active/idle/standby/transition split that must agree with the drive's own
incremental accounting.

Recording is off by default and costs nothing when disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Event kinds, in the order the drive emits them.
SUBMIT = "submit"
SPIN_DOWN = "spin_down"
SET_TIMEOUT = "set_timeout"
CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class DiskEvent:
    """One drive state transition.

    The payload fields depend on ``kind``:

    * ``submit`` -- ``arrival_s``/``start_s``/``finish_s``/``wake_delay_s``
      and ``service_s`` are set; ``woke`` tells whether this request found
      the drive spun down and paid the spin-up.
    * ``spin_down`` -- ``time_s`` is the instant the spin-down begins.
    * ``set_timeout`` -- ``timeout_s`` is the new timeout (None = never).
    * ``checkpoint`` -- passive time up to ``time_s`` was accounted.
    """

    kind: str
    time_s: float
    arrival_s: float = 0.0
    start_s: float = 0.0
    finish_s: float = 0.0
    wake_delay_s: float = 0.0
    service_s: float = 0.0
    woke: bool = False
    timeout_s: Optional[float] = None


@dataclass
class DiskEventLog:
    """Append-only sequence of :class:`DiskEvent` from one drive."""

    events: List[DiskEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def record_submit(
        self,
        arrival_s: float,
        start_s: float,
        finish_s: float,
        wake_delay_s: float,
        service_s: float,
        woke: bool,
    ) -> None:
        self.events.append(
            DiskEvent(
                kind=SUBMIT,
                time_s=arrival_s,
                arrival_s=arrival_s,
                start_s=start_s,
                finish_s=finish_s,
                wake_delay_s=wake_delay_s,
                service_s=service_s,
                woke=woke,
            )
        )

    def record_submit_run(self, submissions) -> None:
        """Batch append: one ``submit`` event per tuple.

        ``submissions`` is a sequence of ``(arrival_s, start_s, finish_s,
        wake_delay_s, service_s, woke)`` tuples, appended in order --
        exactly the events ``len(submissions)`` :meth:`record_submit`
        calls would have produced.  :meth:`SimDisk.submit_run` buffers
        its per-request tuples and flushes them here before every
        interleaved spin-down so the log order stays event-exact.
        """
        self.events.extend(
            DiskEvent(
                kind=SUBMIT,
                time_s=arrival_s,
                arrival_s=arrival_s,
                start_s=start_s,
                finish_s=finish_s,
                wake_delay_s=wake_delay_s,
                service_s=service_s,
                woke=woke,
            )
            for arrival_s, start_s, finish_s, wake_delay_s, service_s, woke
            in submissions
        )

    def record_spin_down(self, time_s: float) -> None:
        self.events.append(DiskEvent(kind=SPIN_DOWN, time_s=time_s))

    def record_set_timeout(self, time_s: float, timeout_s: Optional[float]) -> None:
        self.events.append(
            DiskEvent(kind=SET_TIMEOUT, time_s=time_s, timeout_s=timeout_s)
        )

    def record_checkpoint(self, time_s: float) -> None:
        self.events.append(DiskEvent(kind=CHECKPOINT, time_s=time_s))
