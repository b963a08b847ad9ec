"""CHECKS["parity"]: passes on clean code, catches injected stream bugs."""

from __future__ import annotations

import inspect
import textwrap

import pytest

import repro.service.streaming as streaming
from repro.service.streaming import StreamingManager
from repro.verify.differential import CHECKS, run_differential
from repro.verify.strategies import random_case


def test_stream_check_clean(seed_range=range(24, 36)):
    for seed in seed_range:
        assert CHECKS["parity"](random_case(seed)) is None


def test_stream_check_via_runner():
    report = run_differential(seeds=6, checks=["parity"], first_seed=12)
    assert report.ok
    assert report.outcomes[0].name == "parity"


def _first_divergence(max_seed=20):
    for seed in range(max_seed):
        diff = CHECKS["parity"](random_case(seed))
        if diff is not None:
            return seed, diff
    return None, None


def test_catches_boundary_off_by_one(monkeypatch):
    """Flipping which side of a period edge a tied access lands on.

    The check snaps accesses onto exact boundaries precisely to expose
    this: side='right' pushes the tied access into the next epoch, so
    decisions see one fewer access.
    """
    monkeypatch.setattr(streaming, "_BOUNDARY_SIDE", "right")
    seed, diff = _first_divergence()
    assert diff is not None, "boundary off-by-one escaped the parity check"
    assert seed is not None


def test_catches_dropped_partial_batch(monkeypatch):
    """A close() that silently drops the still-buffered tail of the stream."""
    monkeypatch.setattr(StreamingManager, "_replay_tail", lambda self: None)
    seed, diff = _first_divergence()
    assert diff is not None, "dropped partial batch escaped the parity check"


def test_catches_idle_fire_before_replay(monkeypatch):
    """The idle fire rule checking the clusterer before replaying the
    epoch, so the epoch's own open cluster cannot hold a trailing
    boundary back (the scenario's idle-period leg reaches it)."""
    source = textwrap.dedent(inspect.getsource(StreamingManager._pump))
    old = (
        "self._replay(cut)\n"
        "        if not witnessed and st.clusterer._pending is not None:\n"
        "            break\n"
    )
    new = (
        "if not witnessed and st.clusterer._pending is not None:\n"
        "            break\n"
        "        self._replay(cut)\n"
    )
    assert source.count(old) == 1
    namespace = dict(vars(streaming))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    monkeypatch.setattr(StreamingManager, "_pump", namespace["_pump"])
    seed, diff = _first_divergence(max_seed=40)
    assert diff is not None, "idle fire before replay escaped the parity check"
    assert diff.startswith("stream:"), diff


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_is_deterministic(seed):
    case = random_case(seed)
    assert CHECKS["parity"](case) == CHECKS["parity"](case)
