"""Daemon + client protocol: round trips, concurrency, error paths."""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.service.sessions import SessionRegistry
from repro.sim.runner import run_method


@pytest.fixture()
def daemon(fast_machine):
    with ServiceDaemon(registry=SessionRegistry(fast_machine)) as server:
        yield server


@pytest.fixture()
def client(daemon):
    with ServiceClient(port=daemon.port) as c:
        yield c


def test_ping(client):
    assert client.ping() is True


def test_session_round_trip(client, fast_machine, service_trace):
    duration = 3 * fast_machine.manager.period_s
    offline = run_method(
        "JOINT", service_trace, fast_machine, duration_s=duration,
        warm_start=False,
    )
    sid = client.open_session("JOINT", session_id="web")
    assert sid == "web"
    decisions = []
    n = service_trace.num_accesses
    for lo in range(0, n, 1500):
        hi = min(lo + 1500, n)
        decisions += client.feed(
            sid,
            service_trace.times[lo:hi].tolist(),
            service_trace.pages[lo:hi].tolist(),
        )
    result = client.close(sid, duration)
    # The close result carries the full decision list; the ones that
    # already fired during feeds are its prefix.
    full = result["decisions"]
    assert full[: len(decisions)] == decisions
    assert len(full) == len(offline.decisions)
    assert result["total_energy_j"] == offline.total_energy_j
    assert result["replay_mode"] == "stream-epoch"
    assert [d["timeout_s"] for d in full] == [
        d.timeout_s for d in offline.decisions
    ]


def test_decide_advances_watermark(client, fast_machine):
    sid = client.open_session("JOINT")
    client.feed(sid, [1.0, 2.0], [0, 1])
    assert client.decide(sid, now_s=50.0) == []
    stats = client.stats(sid)
    assert stats["watermark"] == 50.0


def test_stats_rollup(client, service_trace):
    sid = client.open_session("JOINT")
    client.feed(
        sid,
        service_trace.times[:100].tolist(),
        service_trace.pages[:100].tolist(),
    )
    rollup = client.stats()
    assert rollup["open_sessions"] == 1
    assert rollup["accesses_fed"] == 100
    per_session = client.stats(sid)
    assert per_session["accesses_fed"] == 100
    assert per_session["session_id"] == sid


class TestErrors:
    def test_unknown_session(self, client):
        with pytest.raises(ServiceError, match="unknown session"):
            client.feed("ghost", [1.0], [0])

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "frobnicate"})

    def test_bad_method(self, client):
        with pytest.raises(ServiceError):
            client.open_session("NOT-A-METHOD")

    def test_non_monotonic_feed(self, client):
        sid = client.open_session("JOINT")
        with pytest.raises(ServiceError):
            client.feed(sid, [2.0, 1.0], [0, 1])

    def test_error_leaves_connection_usable(self, client):
        with pytest.raises(ServiceError):
            client.feed("ghost", [1.0], [0])
        assert client.ping() is True


@pytest.mark.parametrize(
    "line",
    [b"not json", b"[1]", b'"x"', b"42", b"null", b"\xff\xfe", b"[" * 100_000,
     b'{"op": "open_session", "method": "NOPE"}',
     b'{"op": "open_session", "method": "JOINT", "scale": 0}'],
    ids=["text", "list", "str", "int", "null", "not-utf8", "deep-nesting",
         "policy-error", "config-error"],
)
def test_malformed_line_keeps_connection(daemon, line):
    """Every malformed line, and every request a package error rejects,
    gets an error reply; the socket stays open."""
    with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(line + b"\n")
        reply = json.loads(reader.readline())
        assert reply["ok"] is False and "error" in reply
        sock.sendall(b'{"op": "ping"}\n')
        assert json.loads(reader.readline())["ok"] is True


def test_eight_concurrent_tenant_connections(daemon, service_trace):
    """Each tenant on its own socket; all streams stay isolated."""
    n = service_trace.num_accesses
    energies = {}
    errors = []

    def tenant(i):
        try:
            with ServiceClient(port=daemon.port) as c:
                sid = c.open_session("JOINT", session_id=f"tenant-{i}")
                for lo in range(0, n, 900):
                    hi = min(lo + 900, n)
                    c.feed(
                        sid,
                        service_trace.times[lo:hi].tolist(),
                        service_trace.pages[lo:hi].tolist(),
                    )
                energies[i] = c.close(sid)["total_energy_j"]
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=tenant, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]
    assert len(energies) == 8
    assert len(set(energies.values())) == 1

    with ServiceClient(port=daemon.port) as c:
        stats = c.stats()
    assert stats["closed_sessions"] == 8
    assert stats["open_sessions"] == 0


def test_writes_over_the_wire(client, fast_machine, write_trace):
    duration = 3 * fast_machine.manager.period_s
    offline = run_method(
        "JOINT", write_trace, fast_machine, duration_s=duration,
        warm_start=False,
    )
    sid = client.open_session("JOINT", expect_writes=True)
    n = write_trace.num_accesses
    for lo in range(0, n, 2000):
        hi = min(lo + 2000, n)
        client.feed(
            sid,
            write_trace.times[lo:hi].tolist(),
            write_trace.pages[lo:hi].tolist(),
            writes=np.asarray(write_trace.writes[lo:hi]).tolist(),
        )
    result = client.close(sid, duration)
    assert result["total_energy_j"] == offline.total_energy_j
    assert result["disk_write_pages"] == offline.disk_write_pages


def test_shutdown_stops_server(fast_machine):
    daemon = ServiceDaemon(registry=SessionRegistry(fast_machine))
    daemon.start()
    client = ServiceClient(port=daemon.port)
    client.shutdown()
    client.close_connection()
    daemon.stop()  # idempotent after a protocol shutdown
