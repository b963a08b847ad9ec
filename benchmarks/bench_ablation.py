"""Ablation benchmark: the joint method vs its dismantled variants."""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def _by(rows, dataset_gb, variant):
    for row in rows:
        if row["dataset_gb"] == dataset_gb and row["variant"] == variant:
            return row
    raise KeyError((dataset_gb, variant))


def test_ablation_variants(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("ablation", profile),), rounds=1, iterations=1
    )
    publish(result)
    rows = result.rows
    datasets = sorted({row["dataset_gb"] for row in rows})

    for dataset in datasets:
        joint = _by(rows, dataset, "JOINT")
        timeout_only = _by(rows, dataset, "JOINT-TO")
        resize_only = _by(rows, dataset, "JOINT-MEM")
        unconstrained = _by(rows, dataset, "JOINT-NC")

        # Timeout-only pays the full 128-GB memory bill.
        assert timeout_only["memory_energy"] > 0.9
        # The full method beats (or ties) both single-knob variants.
        assert joint["total_energy"] <= timeout_only["total_energy"] + 0.02
        assert joint["total_energy"] <= resize_only["total_energy"] + 0.02
        # The constraints never worsen the metrics they protect...
        assert joint["long_latency_per_s"] <= (
            unconstrained["long_latency_per_s"] + 0.5
        )
        assert joint["utilization"] <= unconstrained["utilization"] + 0.05
        # ... and when the unconstrained manager falls into the paper's
        # Section IV-D pathology (shrink -> thrash), the constrained one
        # must not follow it there.
        if unconstrained["utilization"] > 1.0:
            assert joint["utilization"] < 0.5
            assert joint["total_energy"] < unconstrained["total_energy"]
