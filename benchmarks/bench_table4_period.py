"""Table IV benchmark: joint-method sensitivity to the period length."""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def test_table4_period_sensitivity(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("table4", profile),), rounds=1, iterations=1
    )
    publish(result)
    energies = [row["total_energy"] for row in result.rows]

    # Paper shape: the joint method's energy varies only slightly with
    # the period length (the LRU list is not reset between periods).
    assert max(energies) - min(energies) < 0.15
    assert all(value < 1.0 for value in energies)

    # Long-latency rates stay low at every period length.
    assert all(row["long_latency_per_s"] < 3.0 for row in result.rows)
