"""Tests for the differential runner: checks, minimizer, injected bugs.

The acceptance test of the subsystem lives here: an intentionally
injected off-by-one in the stack-distance fast path must be caught by
``run_differential`` and delta-debugged to a tiny reproducer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.stack_distance import StackDistanceTracker
from repro.errors import SimulationError
from repro.verify.differential import (
    CHECKS,
    minimize_accesses,
    run_differential,
)
from repro.verify.strategies import PATTERNS, random_case


class TestRunner:
    def test_all_checks_pass_on_clean_code(self):
        report = run_differential(seeds=8)
        assert report.ok
        assert [o.name for o in report.outcomes] == list(CHECKS)
        assert all(o.seeds_run == 8 for o in report.outcomes)
        rendered = report.render()
        assert "PASS" in rendered and "DIVERGED" not in rendered

    def test_check_subset_and_first_seed(self):
        report = run_differential(seeds=3, checks=["stack"], first_seed=100)
        assert report.ok
        assert len(report.outcomes) == 1
        assert report.outcomes[0].name == "stack"

    def test_unknown_check_rejected(self):
        with pytest.raises(SimulationError):
            run_differential(seeds=1, checks=["bogus"])

    def test_zero_seeds_rejected(self):
        with pytest.raises(SimulationError):
            run_differential(seeds=0)


class TestSeededCases:
    def test_cases_are_deterministic(self):
        a, b = random_case(7), random_case(7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.pages, b.pages)
        assert a.window_s == b.window_s and a.period_s == b.period_s

    def test_pattern_families_all_reachable(self):
        patterns = {random_case(seed).pattern for seed in range(60)}
        assert patterns == set(PATTERNS)

    def test_times_sorted_and_period_covers_them(self):
        for seed in range(20):
            case = random_case(seed)
            assert np.all(np.diff(case.times) >= 0.0)
            assert case.period_s > float(case.times[-1])


class TestMinimizer:
    def test_minimizes_to_the_essential_pair(self):
        # Failing iff both page 7 and page 9 survive, in order.
        def fails(items):
            pages = [p for _, p in items]
            return 7 in pages and 9 in pages

        items = [(float(i), p) for i, p in enumerate([1, 7, 3, 4, 9, 6, 2])]
        out = minimize_accesses(items, fails)
        assert [p for _, p in out] == [7, 9]

    def test_requires_a_failing_start(self):
        with pytest.raises(SimulationError):
            minimize_accesses([(0.0, 1)], lambda items: False)

    def test_single_culprit(self):
        items = [(float(i), i) for i in range(50)]
        out = minimize_accesses(items, lambda it: any(p == 31 for _, p in it))
        assert out == [(31.0, 31)]


def _off_by_one():
    """``_access_block`` with every depth >= 1 reported one too deep."""
    original = StackDistanceTracker._access_block

    def buggy(self, pages):
        depths = original(self, pages)
        return np.where(depths >= 1, depths + 1, depths)

    return buggy


class TestInjectedBug:
    """The subsystem's reason to exist: a planted bug must be caught."""

    def test_off_by_one_in_stack_distance_is_caught(self, monkeypatch):
        monkeypatch.setattr(StackDistanceTracker, "_access_block", _off_by_one())
        report = run_differential(seeds=20, checks=["stack"])
        assert not report.ok
        divergence = report.first_divergence
        assert divergence is not None
        assert divergence.check == "stack"
        # Delta debugging shrinks it to the minimal A B A witness.
        assert len(divergence.pages) <= 4
        assert "reproducer" not in divergence.detail
        assert "VerifyCase" in divergence.reproducer()
        assert "FAIL" in report.render()

    def test_off_by_one_also_breaks_predictor_check(self, monkeypatch):
        monkeypatch.setattr(StackDistanceTracker, "_access_block", _off_by_one())
        report = run_differential(seeds=20, checks=["predictor"])
        assert not report.ok

    def test_eviction_bug_in_predictor_is_caught(self, monkeypatch):
        from repro.cache import predictor as predictor_module

        original = predictor_module.ResizePredictor.record_array

        def buggy(self, times, depths):
            # Drop every fourth sample: predicted misses go wrong.
            seen = getattr(self, "_counter", 0)
            keep = (seen + 1 + np.arange(len(times))) % 4 != 0
            self._counter = seen + len(times)
            original(self, np.asarray(times)[keep], np.asarray(depths)[keep])

        monkeypatch.setattr(
            predictor_module.ResizePredictor, "record_array", buggy
        )
        report = run_differential(seeds=20, checks=["predictor"])
        assert not report.ok

    def test_minimized_case_still_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(StackDistanceTracker, "_access_block", _off_by_one())
        report = run_differential(seeds=20, checks=["stack"])
        d = report.first_divergence
        assert d is not None
        case = random_case(d.seed)
        rebuilt = type(case)(
            seed=d.seed,
            times=np.asarray(d.times),
            pages=np.asarray(d.pages, dtype=np.int64),
            window_s=d.window_s,
            period_s=d.period_s,
            pattern=d.pattern,
        )
        assert CHECKS["stack"](rebuilt) is not None
