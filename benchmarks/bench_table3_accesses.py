"""Table III benchmark: memory and disk access counts per data set."""

from __future__ import annotations

from repro.campaign.plan import run_plan
from repro.experiments.registry import get_plan


def test_table3_access_counts(benchmark, profile, publish):
    result = benchmark.pedantic(
        run_plan, args=(get_plan("table3", profile),), rounds=1, iterations=1
    )
    publish(result)
    rows = {row["method"]: row for row in result.rows}
    datasets = [key for key in rows["JOINT"] if key != "method"]
    biggest = datasets[-1]

    # Memory accesses depend only on the workload and dwarf disk accesses.
    ma = rows["MA (memory accesses)"]
    for dataset in datasets:
        assert ma[dataset] > rows["ALWAYS-ON"][dataset]

    # PD keeps data, so its miss stream matches the full-memory baseline.
    for dataset in datasets:
        assert rows["2TPD-128GB"][dataset] == rows["ALWAYS-ON"][dataset]

    # DS loses data: at the biggest data set it misses at least as often
    # as the baseline.
    assert rows["2TDS-128GB"][biggest] >= rows["ALWAYS-ON"][biggest]

    # Undersized FM misses more than full-size FM on the big data sets.
    fm_labels = sorted(
        (label for label in rows if label.startswith("2TFM")),
        key=lambda label: int(label.split("-")[1][:-2]),
    )
    assert rows[fm_labels[0]][biggest] >= rows[fm_labels[-1]][biggest]
