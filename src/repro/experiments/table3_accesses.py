"""Table III: memory and disk access counts under different data sets.

The paper reports, per data set, the number of disk accesses for the
joint method, 2TFM at each size, 2TPD, 2TDS and the always-on method,
plus a final row with the (method-independent) memory access count.
2T and AD variants have identical miss streams, so only the 2T rows are
shown, exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.campaign.plan import GridPoint, resolve_methods
from repro.experiments.base import ExperimentConfig, GridExperiment, Rows
from repro.sim.compare import BASELINE_LABEL

DEFAULT_DATASETS_GB: Sequence[float] = (4.0, 16.0, 32.0, 64.0)
MA_LABEL = "MA (memory accesses)"


def _method_names(config: ExperimentConfig) -> List[str]:
    methods = ["JOINT"]
    methods += [f"2TFM-{size}GB" for size in config.fm_sizes_gb]
    methods += ["2TPD-128GB", "2TDS-128GB", "ALWAYS-ON"]
    return methods


def points(
    config: ExperimentConfig,
    datasets_gb: Optional[Sequence[float]] = None,
) -> List[GridPoint]:
    """One point per data set, under the methods the paper tabulates."""
    machine = config.machine()
    methods = resolve_methods(_method_names(config))
    return [
        config.point(
            machine,
            methods,
            (("dataset_gb", dataset_gb),),
            dataset_gb=dataset_gb,
            seed_offset=index,
        )
        for index, dataset_gb in enumerate(datasets_gb or DEFAULT_DATASETS_GB)
    ]


def rows(point, by_label):
    """Disk accesses per method, then the workload's memory accesses."""
    for label, result in by_label.items():
        yield {"method": label, "accesses": result.disk_page_accesses}
    yield {"method": MA_LABEL, "accesses": by_label[BASELINE_LABEL].total_accesses}


def pivot(long_rows: Rows) -> Rows:
    """One row per method (MA last), one column per data set."""
    table: Dict[object, Dict[str, object]] = {}
    for row in long_rows:
        cells = table.setdefault(row["method"], {"method": row["method"]})
        cells[f"{row['dataset_gb']:g}GB"] = row["accesses"]
    return list(table.values())


EXPERIMENT = GridExperiment(
    name="table3",
    title="Table III -- disk accesses per method and memory accesses",
    notes=(
        "Paper shape: disk accesses grow as FM memory falls below the "
        "data set; PD matches the large-memory miss stream; DS adds "
        "misses from disabled banks; memory accesses depend only on "
        "the workload."
    ),
    points=points,
    rows=rows,
    pivot=pivot,
)
