"""CHECKS["stack"]: the batched array pass passes, a broken one fails."""

from __future__ import annotations

import inspect
import textwrap

import numpy as np
import pytest

import repro.cache.stack_distance as stack_distance
from repro.verify.differential import CHECKS, run_differential
from repro.verify.strategies import random_case


def test_stack_check_clean():
    for seed in range(30):
        assert CHECKS["stack"](random_case(seed)) is None


def _mutant(old: str, new: str):
    """``count_earlier_above`` with one source edit applied."""
    source = textwrap.dedent(inspect.getsource(stack_distance.count_earlier_above))
    assert source.count(old) == 1
    namespace = dict(vars(stack_distance))
    exec(source.replace(old, new), namespace)
    return namespace["count_earlier_above"]


@pytest.mark.parametrize(
    "old, new",
    [
        # One bit level fewer: pairs split only by the top bit go uncounted.
        ("range(levels - 1, -1, -1)", "range(levels - 2, -1, -1)"),
        # Each level counts one left-half entry too many.
        ("width - lefts_before", "width - lefts_before + 1"),
    ],
    ids=["levels", "level-count"],
)
def test_off_by_one_in_level_count_is_caught(monkeypatch, old, new):
    monkeypatch.setattr(stack_distance, "count_earlier_above", _mutant(old, new))
    report = run_differential(seeds=20, checks=["stack"])
    assert not report.ok
    divergence = report.first_divergence
    assert divergence is not None
    assert divergence.check == "stack"
    # The detail names the batch split that diverged.
    assert divergence.detail.startswith("access_array")
    # The minimized reproducer still fails, and is no longer than the case.
    case = random_case(divergence.seed)
    assert len(divergence.pages) <= case.pages.size
    rebuilt = type(case)(
        seed=divergence.seed,
        times=np.asarray(divergence.times),
        pages=np.asarray(divergence.pages, dtype=np.int64),
        window_s=divergence.window_s,
        period_s=divergence.period_s,
        pattern=divergence.pattern,
    )
    assert CHECKS["stack"](rebuilt) is not None
