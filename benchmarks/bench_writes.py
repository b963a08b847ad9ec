"""Write-traffic extension benchmark."""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def _series(rows, method, key):
    return [
        row[key]
        for row in sorted(rows, key=lambda r: r["write_fraction"])
        if row["method"] == method
    ]


def test_write_fraction_sweep(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("writes", profile),), rounds=1, iterations=1
    )
    publish(result)
    rows = result.rows

    # Write-back volume grows with the write fraction, for every method.
    for method in ("JOINT", "2TFM-16GB", "ALWAYS-ON"):
        volumes = _series(rows, method, "writeback_pages")
        assert volumes[0] == 0
        assert all(a <= b for a, b in zip(volumes, volumes[1:])), method

    # Savings never improve as writes grow (the flusher erodes idleness).
    for method in ("JOINT", "2TFM-16GB"):
        energies = _series(rows, method, "total_energy")
        assert energies[-1] >= energies[0] - 0.05, method

    # Every row still beats or ties the always-on baseline.
    for row in rows:
        if row["method"] != "ALWAYS-ON":
            assert row["total_energy"] <= 1.02, row
