"""Fig. 8(c,d) benchmark: energy and long-latency vs data popularity."""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def _series(rows, method, key):
    return [
        row[key]
        for row in sorted(rows, key=lambda r: r["popularity"])
        if row["method"] == method
    ]


def test_fig8_popularity_sweep(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("fig8pop", profile),), rounds=1, iterations=1
    )
    publish(result)
    rows = result.rows

    # Paper shape 1: whole-data-set methods are flat across popularity.
    flat = _series(rows, "2TFM-128GB", "total_energy")
    assert max(flat) - min(flat) < 0.15

    # Paper shape 2: at dense popularity (0.05-0.2) the joint method
    # saves substantially against 32-GB-plus configurations (paper:
    # 13-21 % more savings than 2TFM-32GB / 2TPD).
    joint = _series(rows, "JOINT", "total_energy")
    fm32 = _series(rows, "2TFM-32GB", "total_energy")
    pops = sorted({row["popularity"] for row in rows})
    for pop, j, f in zip(pops, joint, fm32):
        if pop <= 0.2:
            assert j < f, f"joint should win at dense popularity {pop}"

    # Paper shape 3: joint long-latency low at dense popularity
    # ("almost no requests with long latency" at 0.05-0.2).
    for pop, rate in zip(pops, _series(rows, "JOINT", "long_latency_per_s")):
        if pop <= 0.2:
            assert rate < 3.0
