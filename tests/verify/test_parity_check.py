"""CHECKS["parity"]: reaches every fast mode, catches the other legs' bugs.

The accrual, miss-run and stream mutants live in ``test_kernels_check``,
``test_missrun_check`` and ``test_stream_check``; the three here target
the write, epoch and disable legs.  Each is a one-token edit of a
replay function's source, patched in where the replay core looks it up.
"""

from __future__ import annotations

import inspect
import textwrap

import repro.memory.system as system_module
import repro.sim.engine as engine_module
import repro.sim.kernels as kernels
from repro.memory.system import DisableMemorySystem
from repro.sim.engine import SimulationEngine
from repro.verify.differential import CHECKS
from repro.verify.strategies import random_case

#: Every replay mode the parity check must land on: the five offline
#: fast modes and the streaming twin of each, plus stream-scalar.
_FAST_MODES = ("vectorized", "missrun", "writes", "epoch", "disable")
_EXPECTED_MODES = set(_FAST_MODES) | {
    f"stream-{mode}" for mode in _FAST_MODES + ("scalar",)
}


def test_reaches_every_mode_within_40_seeds(monkeypatch):
    seen = set()
    finish = SimulationEngine._finish

    def spy(self, st, flush_target):
        result = finish(self, st, flush_target)
        seen.add(result.replay_mode)
        return result

    monkeypatch.setattr(SimulationEngine, "_finish", spy)
    for seed in range(40):
        assert CHECKS["parity"](random_case(seed)) is None
    assert _EXPECTED_MODES <= seen, sorted(_EXPECTED_MODES - seen)


def _mutant(function, module, old: str, new: str):
    """``function`` with its one occurrence of ``old`` made ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not a unique token"
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


def _first_divergence(max_seed=30):
    for seed in range(max_seed):
        diff = CHECKS["parity"](random_case(seed))
        if diff is not None:
            return seed, diff
    return None, None


def test_catches_dropped_flush_split(monkeypatch):
    """A write-trace hit run consumed whole across a pending flush sweep."""
    monkeypatch.setattr(
        kernels,
        "_consume_hits",
        _mutant(
            kernels._consume_hits,
            kernels,
            "if event_at > st.duration_s:",
            "if True:",
        ),
    )
    seed, diff = _first_divergence()
    assert diff is not None, "dropped flush split escaped the parity check"
    assert diff.startswith("writes:"), diff


def test_catches_skipped_resident_reclamp(monkeypatch):
    """The boundary walk keeps the resident count past a down-resize."""
    monkeypatch.setattr(
        SimulationEngine,
        "_walk",
        _mutant(
            SimulationEngine._walk,
            engine_module,
            "st.resident = min(st.resident, self.memory.capacity_pages)",
            "pass",
        ),
    )
    seed, diff = _first_divergence()
    assert diff is not None, "skipped re-clamp escaped the parity check"


def test_catches_extra_disable_hit(monkeypatch):
    """A disable-model batch that ends one access past its event, so it
    replays the access that finds its bank disabled as a hit."""
    monkeypatch.setattr(
        DisableMemorySystem,
        "_replay_batch",
        _mutant(
            DisableMemorySystem._replay_batch,
            system_module,
            "cut = int(late[~silent].min())",
            "cut = int(late[~silent].min()) + 1",
        ),
    )
    seed, diff = _first_divergence()
    assert diff is not None, "extra disable hit escaped the parity check"
    assert diff.startswith("disable:"), diff
