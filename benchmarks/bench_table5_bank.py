"""Table V benchmark: joint-method sensitivity to the memory bank size."""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def test_table5_bank_sensitivity(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("table5", profile),), rounds=1, iterations=1
    )
    publish(result)
    rows = sorted(result.rows, key=lambda row: row["bank_mb"])
    energies = [row["total_energy"] for row in rows]

    # Paper shape: total energy nearly constant across bank sizes.
    assert max(energies) - min(energies) < 0.15
    assert all(value < 1.0 for value in energies)

    # Paper shape: coarser banks never *reduce* the memory share --
    # the chosen size rounds up to coarser units.
    assert rows[-1]["memory_energy"] >= rows[0]["memory_energy"] - 0.02

    assert all(row["long_latency_per_s"] < 3.0 for row in rows)
