"""Fig. 7 benchmark: the full method comparison across data-set sizes.

Regenerates the six panels (total/disk/memory energy normalised to
always-on, latency, utilisation, long-latency counts) for the joint
method, the 14 comparison methods and the baseline, at 4-64 GB.
"""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def _by(rows, dataset_gb, method):
    for row in rows:
        if row["dataset_gb"] == dataset_gb and row["method"] == method:
            return row
    raise KeyError((dataset_gb, method))


def test_fig7_dataset_sweep(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("fig7", profile),), rounds=1, iterations=1
    )
    publish(result)
    rows = result.rows
    datasets = sorted({row["dataset_gb"] for row in rows})
    small = datasets[0]

    from repro.experiments.ascii_chart import bar_chart

    for dataset in datasets:
        values = {
            row["method"]: row["total_energy"]
            for row in rows
            if row["dataset_gb"] == dataset
        }
        print()
        print(
            bar_chart(
                values,
                title=(
                    f"Fig. 7(a) at {dataset:g} GB -- total energy "
                    "(| = always-on)"
                ),
                reference=1.0,
            )
        )

    # Paper shape 1: at the smallest data set the joint method beats the
    # always-on baseline and the oversized FM configurations.
    joint_small = _by(rows, small, "JOINT")
    assert joint_small["total_energy"] < 1.0
    assert (
        joint_small["total_energy"] < _by(rows, small, "2TFM-32GB")["total_energy"]
    )
    assert (
        joint_small["total_energy"] < _by(rows, small, "2TFM-128GB")["total_energy"]
    )

    # Paper shape 2: PD methods pay >30 % memory energy at every point.
    for dataset in datasets:
        assert _by(rows, dataset, "2TPD-128GB")["memory_energy"] > 0.30

    # Paper shape 3: no managed method costs more than always-on (the
    # 128-GB FM methods tie it -- their memory energy is identical and
    # the disk is all that differs, paper Section V-B1).
    for dataset in datasets:
        for row in rows:
            if row["dataset_gb"] == dataset and row["method"] != "ALWAYS-ON":
                assert row["total_energy"] <= 1.0 + 1e-6, row["method"]

    # Paper shape 4: the joint method keeps long-latency rates low
    # (paper: under ~3 per second everywhere).
    for dataset in datasets:
        assert _by(rows, dataset, "JOINT")["long_latency_per_s"] < 3.0
