"""Fig. 8(a,b) benchmark: energy and long-latency vs data rate."""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def _series(rows, method, key):
    return [
        row[key]
        for row in sorted(rows, key=lambda r: r["rate_mb_s"])
        if row["method"] == method
    ]


def test_fig8_rate_sweep(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("fig8rate", profile),), rounds=1, iterations=1
    )
    publish(result)
    rows = result.rows

    # Paper shape 1: methods whose memory covers the data set are nearly
    # flat in energy across rates (their cache absorbs everything).
    flat = _series(rows, "2TFM-128GB", "total_energy")
    assert max(flat) - min(flat) < 0.15

    # Paper shape 2: the joint method beats the oversized methods at
    # every rate (paper: 2TFM-64GB consumes 41-45% more than joint).
    joint = _series(rows, "JOINT", "total_energy")
    oversized = _series(rows, "2TFM-64GB", "total_energy")
    assert all(j < o for j, o in zip(joint, oversized))

    # Paper shape 3: every method saves energy against always-on.
    assert all(value < 1.0 for value in joint)

    # Paper shape 4: joint long-latency stays below three per second.
    assert all(
        value < 3.0 for value in _series(rows, "JOINT", "long_latency_per_s")
    )
