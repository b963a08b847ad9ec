"""CHECKS["parity"]: passes on clean code, catches injected accrual bugs.

The two mutations target the power-down model's batched bank accrual
(``PowerDownMemorySystem.charge_hit_run``): a wake charged when an
access lands exactly on the power-down boundary, and a bank's first
access of a run accruing from its last access instead of its
accounting mark (which a warm-up checkpoint moves past it).  Each is a
one-token edit of the method's source, patched in at class level so the
vectorized kernel -- and only it -- runs the mutant.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest

import repro.memory.system as system
from repro.memory.system import PowerDownMemorySystem
from repro.verify.differential import CHECKS, run_differential
from repro.verify.strategies import random_case


def test_kernels_check_clean(seed_range=range(12)):
    for seed in seed_range:
        assert CHECKS["parity"](random_case(seed)) is None


def test_kernels_check_via_runner():
    report = run_differential(seeds=6, checks=["parity"])
    assert report.ok
    assert report.outcomes[0].name == "parity"


def _first_divergence(max_seed=30):
    for seed in range(max_seed):
        diff = CHECKS["parity"](random_case(seed))
        if diff is not None:
            return seed, diff
    return None, None


def _mutant(old: str, new: str):
    """``charge_hit_run`` with its one occurrence of ``old`` made ``new``."""
    source = textwrap.dedent(
        inspect.getsource(PowerDownMemorySystem.charge_hit_run)
    )
    assert source.count(old) == 1, f"{old!r} is not a unique token"
    namespace = dict(vars(system))
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["charge_hit_run"]


def test_catches_wake_on_boundary(monkeypatch):
    """An access exactly at ``last + timeout`` charged a wake."""
    monkeypatch.setattr(
        PowerDownMemorySystem,
        "charge_hit_run",
        _mutant("now > boundary", "now >= boundary"),
    )
    seed, diff = _first_divergence()
    assert diff is not None, "wake on >= escaped the parity check"


def test_catches_accrual_from_last_access(monkeypatch):
    """A run's first access per bank accruing from ``_last_access``."""
    monkeypatch.setattr(
        PowerDownMemorySystem,
        "charge_hit_run",
        _mutant(
            "np.maximum(self._accounted_until[banks], previous)",
            "np.maximum(self._last_access[banks], previous)",
        ),
    )
    seed, diff = _first_divergence()
    assert diff is not None, (
        "accrual from the last access escaped the parity check"
    )
    assert "warm-up 0.0s" not in diff


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_is_deterministic(seed):
    case = random_case(seed)
    assert CHECKS["parity"](case) == CHECKS["parity"](case)
