"""Streaming power management: online feeds, tenants, and the daemon.

The offline engine replays complete traces; this package runs the same
managers *online*, the shape of a real datacenter power controller:

* :class:`~repro.service.streaming.StreamingManager` -- one tenant's
  incremental stream.  ``feed(times, pages)`` consumes access batches
  with no full trace in hand and returns the period decisions they
  unlocked; ``close()`` returns a :class:`~repro.sim.results.SimResult`
  bit-identical to an offline replay of the same access sequence
  (the stream scenario of ``CHECKS["parity"]`` enforces this).
* :class:`~repro.service.sessions.SessionRegistry` -- N independent
  tenant streams with per-tenant machine configs, idle eviction,
  monotonic-time validation and telemetry rollups.
* :class:`~repro.service.daemon.ServiceDaemon` /
  :class:`~repro.service.client.ServiceClient` -- the ``repro serve``
  line-delimited-JSON protocol over a local socket.

See docs/SERVICE.md for the protocol and the parity guarantees.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.sessions import SessionRegistry, SessionStats
from repro.service.streaming import StreamingManager

__all__ = [
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "SessionRegistry",
    "SessionStats",
    "StreamingManager",
]
