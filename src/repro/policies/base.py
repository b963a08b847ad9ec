"""Disk-policy interface.

A disk policy owns the spin-down timeout of a :class:`~repro.disk.drive.
SimDisk`.  The engine notifies it of the events timeout policies react to;
a hook returns the new timeout (seconds, ``None`` for "never spin down")
or ``NO_CHANGE`` to leave it as is.
"""

from __future__ import annotations

from typing import Optional, Union

#: Sentinel: the hook does not want to change the timeout.
NO_CHANGE = "no-change"

TimeoutUpdate = Union[Optional[float], str]


class DiskPolicy:
    """Base class; default behaviour is a fixed, never-changing timeout."""

    #: Short identifier used in method names ("2T", "AD", ...).
    name: str = "base"
    #: True when :meth:`on_request` returns ``NO_CHANGE`` and changes no
    #: state for every request that did not wake the disk, so the engine
    #: may batch the requests between wakes.  Read on the class that
    #: defines ``on_request``: a subclass that overrides it must declare
    #: the flag again.
    wake_driven: bool = False

    def initial_timeout(self) -> Optional[float]:
        """Timeout installed at simulation start (None = never spin down)."""
        return None

    def on_request(
        self,
        now: float,
        latency_s: float,
        wake_delay_s: float,
        idle_before_s: float,
    ) -> TimeoutUpdate:
        """Called after each served request.

        ``wake_delay_s`` is positive when this request had to wake the
        disk; ``idle_before_s`` is the idle stretch that preceded it.
        """
        del now, latency_s, wake_delay_s, idle_before_s
        return NO_CHANGE

    def on_idle_start(
        self, completion_s: float, next_arrival_s: Optional[float]
    ) -> TimeoutUpdate:
        """Called when the disk goes idle.

        ``next_arrival_s`` is an oracle hint (the next request's arrival
        time, None when the trace ends); online policies must ignore it.
        """
        del completion_s, next_arrival_s
        return NO_CHANGE

    def on_period(self, now: float) -> TimeoutUpdate:
        """Called at every manager period boundary."""
        del now
        return NO_CHANGE
