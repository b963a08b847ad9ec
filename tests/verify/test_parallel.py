"""Campaign-backed differential verification."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.verify import differential
from repro.verify.differential import run_differential
from repro.verify.parallel import chunk_seeds, run_differential_campaign


class TestChunking:
    def test_covers_exactly_the_seed_count(self):
        assert sum(chunk_seeds(50, 4)) == 50
        assert sum(chunk_seeds(7, 2, chunk=3)) == 7

    def test_heuristic_gives_several_chunks_per_worker(self):
        sizes = chunk_seeds(64, 4)
        assert len(sizes) == 16
        assert all(size == 4 for size in sizes)

    def test_one_chunk_per_check_when_serial(self):
        assert chunk_seeds(50, 1) == [50]

    def test_explicit_chunk_respected(self):
        assert chunk_seeds(10, 8, chunk=10) == [10]

    def test_bad_chunk_rejected(self):
        with pytest.raises(SimulationError):
            chunk_seeds(10, 2, chunk=0)


class TestEquivalence:
    def test_report_matches_serial_runner(self):
        kwargs = dict(
            seeds=6, checks=["stack", "intervals"], first_seed=0, max_accesses=60
        )
        serial = run_differential(**kwargs)
        campaign = run_differential_campaign(jobs=2, **kwargs)
        assert serial.ok and campaign.ok
        assert campaign.render() == serial.render()

    def test_progress_sees_every_task(self):
        seen = []
        run_differential_campaign(
            seeds=3,
            checks=["intervals", "stack"],
            chunk=1,
            on_progress=lambda record, done, total: seen.append(record.label),
        )
        assert seen == [
            "verify:intervals[0..1)",
            "verify:intervals[1..2)",
            "verify:intervals[2..3)",
            "verify:stack[0..1)",
            "verify:stack[1..2)",
            "verify:stack[2..3)",
        ]

    def test_unknown_check_rejected(self):
        with pytest.raises(SimulationError, match="unknown check"):
            run_differential_campaign(seeds=2, checks=["bogus"])

    def test_zero_seeds_rejected(self):
        with pytest.raises(SimulationError):
            run_differential_campaign(seeds=0)


class TestDivergenceAccounting:
    """``seeds_run`` and the reported divergence must match the serial
    early-exit semantics even though chunks run to completion."""

    @pytest.fixture()
    def injected(self, monkeypatch):
        def bad_check(case):
            return "injected divergence" if case.seed == 7 else None

        monkeypatch.setitem(differential.CHECKS, "stack", bad_check)

    def test_divergence_survives_chunk_merge(self, injected):
        serial = run_differential(seeds=12, checks=["stack"], max_accesses=40)
        # jobs=1 keeps execution in-process so the monkeypatch applies.
        campaign = run_differential_campaign(
            seeds=12, checks=["stack"], max_accesses=40, jobs=1, chunk=5
        )
        assert not serial.ok and not campaign.ok
        assert campaign.outcomes[0].seeds_run == serial.outcomes[0].seeds_run == 8
        assert campaign.first_divergence.seed == serial.first_divergence.seed == 7

    def test_earliest_divergence_wins(self, monkeypatch):
        def bad_check(case):
            return "boom" if case.seed in (3, 9) else None

        monkeypatch.setitem(differential.CHECKS, "stack", bad_check)
        campaign = run_differential_campaign(
            seeds=12, checks=["stack"], max_accesses=40, jobs=1, chunk=4
        )
        assert campaign.first_divergence.seed == 3
        assert campaign.outcomes[0].seeds_run == 4

    def test_first_seed_offset_accounted(self, monkeypatch):
        def bad_check(case):
            return "boom" if case.seed == 25 else None

        monkeypatch.setitem(differential.CHECKS, "stack", bad_check)
        campaign = run_differential_campaign(
            seeds=10,
            checks=["stack"],
            first_seed=20,
            max_accesses=40,
            jobs=1,
            chunk=3,
        )
        assert campaign.first_divergence.seed == 25
        assert campaign.outcomes[0].seeds_run == 6
