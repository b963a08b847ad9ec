"""The ``repro serve`` daemon: tenant streams over a local socket.

Line-delimited JSON over TCP on 127.0.0.1 (one request object per line,
one response object per line), served by a thread per connection so N
tenants stream concurrently against one shared
:class:`~repro.service.sessions.SessionRegistry`.

Operations (``{"op": ..., ...}`` -> ``{"ok": true, ...}`` or
``{"ok": false, "error": ...}``):

``open_session``
    ``method`` (required), optional ``scale`` (granularity factor
    applied to the paper machine; default 1024), ``prefill`` (page
    list), ``warmup_s``, ``expect_writes``, ``session_id``.
    Returns ``session_id``.
``feed``
    ``session``, ``times``, ``pages``, optional ``writes``.  Returns
    ``decisions`` -- the period decisions this batch unlocked
    (``evaluations`` omitted from the wire format).
``decide`` (alias ``advance``)
    ``session``, ``now_s``.  Advances the stream's watermark so period
    boundaries in an idle stream fire; returns ``decisions``.
``close``
    ``session``, optional ``duration_s``.  Returns ``result``, a flat
    summary of the final :class:`~repro.sim.results.SimResult`.
``stats``
    Optional ``session``.  Per-session snapshot, or the registry-wide
    rollup (each live session serialized).
``ping`` / ``shutdown``
    Liveness check / graceful stop.

Errors never kill the daemon: they come back as ``ok: false`` on the
offending connection.  See docs/SERVICE.md for the full protocol.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import socketserver
import threading
from typing import Dict, List, Optional

from repro.config.machine import MachineConfig, paper_machine
from repro.core.joint import PeriodDecision
from repro.errors import ReproError, SimulationError
from repro.service.sessions import SessionRegistry, SessionStats
from repro.sim.results import SimResult

_MAX_LINE_BYTES = 64 << 20  # refuse absurd requests instead of dying on OOM


def decision_to_dict(decision: PeriodDecision) -> Dict[str, object]:
    """Wire format of one period decision (candidate evaluations omitted)."""
    return {
        "period_index": decision.period_index,
        "start_s": decision.start_s,
        "end_s": decision.end_s,
        "memory_bytes": decision.memory_bytes,
        "timeout_s": decision.timeout_s,
        "observed_accesses": decision.observed_accesses,
        "predicted_disk_accesses": decision.predicted_disk_accesses,
    }


def result_to_dict(result: SimResult) -> Dict[str, object]:
    """Wire format of a final run result (flat scalars only)."""
    return {
        "label": result.label,
        "duration_s": result.duration_s,
        "memory_energy_j": result.memory_energy_j,
        "disk_energy_j": result.disk_energy_j,
        "total_energy_j": result.total_energy_j,
        "total_accesses": result.total_accesses,
        "disk_page_accesses": result.disk_page_accesses,
        "disk_requests": result.disk_requests,
        "disk_write_pages": result.disk_write_pages,
        "mean_latency_s": result.mean_latency_s,
        "long_latency": result.long_latency,
        "wake_long_latency": result.wake_long_latency,
        "spin_down_cycles": result.spin_down_cycles,
        "utilization": result.utilization,
        "periods": len(result.periods),
        "decisions": [decision_to_dict(d) for d in result.decisions],
        "replay_mode": result.replay_mode,
    }


def _stats_to_dict(stats: SessionStats) -> Dict[str, object]:
    return dataclasses.asdict(stats)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        daemon: "ServiceDaemon" = self.server.daemon  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(_MAX_LINE_BYTES)
            except (ConnectionError, OSError):
                return
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            op = None
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
                op = request.get("op")
                response = daemon.dispatch(request)
            except ReproError as exc:
                response = {"ok": False, "error": str(exc)}
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                response = {"ok": False, "error": f"bad request: {exc}"}
            try:
                self.wfile.write(
                    json.dumps(response, separators=(",", ":")).encode()
                    + b"\n"
                )
                self.wfile.flush()
            except (ConnectionError, OSError):
                return
            if op == "shutdown":
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServiceDaemon:
    """A running ``repro serve`` instance.

    >>> daemon = ServiceDaemon()
    >>> daemon.start()          # binds 127.0.0.1 on an ephemeral port
    >>> daemon.port             # doctest: +SKIP
    >>> daemon.stop()

    ``serve_forever`` blocks instead (the CLI path); ``stop`` (or a
    client ``shutdown`` request) ends it from any thread.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: Optional[SessionRegistry] = None,
        idle_timeout_s: Optional[float] = None,
    ) -> None:
        self.registry = registry or SessionRegistry(
            idle_timeout_s=idle_timeout_s
        )
        self._server = _Server((host, port), _Handler, bind_and_activate=True)
        self._server.daemon = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._machines: Dict[int, MachineConfig] = {}
        self._stopped = threading.Event()

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> None:
        """Serve in a background thread (tests, embedded use)."""
        if self._thread is not None:
            raise SimulationError("daemon already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until stopped (the CLI path)."""
        self._server.serve_forever(poll_interval=0.05)

    def stop(self) -> None:
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --- request dispatch -------------------------------------------------

    def dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        if not isinstance(op, str):
            raise SimulationError("request needs a string 'op'")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise SimulationError(f"unknown op {op!r}")
        return handler(request)

    def _machine(self, scale: int) -> MachineConfig:
        machine = self._machines.get(scale)
        if machine is None:
            machine = paper_machine().scaled(scale) if scale != 1 else paper_machine()
            self._machines[scale] = machine
        return machine

    def _op_ping(self, request: Dict[str, object]) -> Dict[str, object]:
        return {"ok": True, "pong": True}

    def _op_shutdown(self, request: Dict[str, object]) -> Dict[str, object]:
        # Shut down from a helper thread: shutdown() deadlocks when
        # called from the serve_forever thread itself.
        threading.Thread(target=self.stop, daemon=True).start()
        return {"ok": True, "stopping": True}

    def _op_open_session(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        method = request.get("method")
        if not isinstance(method, str):
            raise SimulationError("open_session needs a 'method' string")
        scale = request.get("scale")
        machine = (
            self.registry.default_machine
            if scale is None
            else self._machine(int(scale))
        )
        prefill = request.get("prefill") or []
        session_id = self.registry.open_session(
            method,
            machine=machine,
            prefill=[int(p) for p in prefill],
            warmup_s=float(request.get("warmup_s", 0.0)),
            expect_writes=bool(request.get("expect_writes", False)),
            session_id=request.get("session_id"),
        )
        return {"ok": True, "session_id": session_id}

    def _op_feed(self, request: Dict[str, object]) -> Dict[str, object]:
        session = self._session_id(request)
        decisions = self.registry.feed(
            session,
            request.get("times", []),
            request.get("pages", []),
            request.get("writes"),
        )
        return {"ok": True, "decisions": self._decisions(decisions)}

    def _op_decide(self, request: Dict[str, object]) -> Dict[str, object]:
        session = self._session_id(request)
        decisions = self.registry.advance(
            session, float(request["now_s"])
        )
        return {"ok": True, "decisions": self._decisions(decisions)}

    _op_advance = _op_decide

    def _op_close(self, request: Dict[str, object]) -> Dict[str, object]:
        session = self._session_id(request)
        duration = request.get("duration_s")
        result = self.registry.close(
            session, None if duration is None else float(duration)
        )
        return {"ok": True, "result": result_to_dict(result)}

    def _op_stats(self, request: Dict[str, object]) -> Dict[str, object]:
        session = request.get("session")
        if session is not None:
            stats = self.registry.session_stats(str(session))
            return {"ok": True, "stats": _stats_to_dict(stats)}
        self.registry.evict_idle()
        rollup = self.registry.stats()
        rollup["sessions"] = {
            sid: _stats_to_dict(s)
            for sid, s in rollup["sessions"].items()  # type: ignore[union-attr]
        }
        return {"ok": True, "stats": rollup}

    @staticmethod
    def _session_id(request: Dict[str, object]) -> str:
        session = request.get("session")
        if not isinstance(session, str):
            raise SimulationError("request needs a 'session' id")
        return session

    @staticmethod
    def _decisions(decisions: List[PeriodDecision]) -> List[Dict[str, object]]:
        return [decision_to_dict(d) for d in decisions]


def connect_address(host: str, port: int, timeout_s: float = 10.0) -> socket.socket:
    """TCP-connect helper shared by the client and the smoke scripts."""
    return socket.create_connection((host, port), timeout=timeout_s)
