"""Fig. 7: energy and performance versus data-set size.

Sweeps the data set (paper: 4-64 GB at 100 MB/s, popularity 0.1) over the
full method comparison and reports the six panels:

(a) total energy, (b) disk energy, (c) memory energy -- normalised to the
always-on method; (d) mean request latency; (e) disk utilisation;
(f) long-latency requests per second.

The paper omits 2TFM-8GB/ADFM-8GB bars at 64 GB because their disk demand
exceeds the drive's bandwidth; we keep the rows and let the >100 %
utilisation flag them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.campaign.plan import GridPoint
from repro.experiments.base import ExperimentConfig, GridExperiment
from repro.policies.registry import standard_methods
from repro.sim.sweep import comparison_rows

DEFAULT_DATASETS_GB: Sequence[float] = (4.0, 16.0, 32.0, 64.0)


def points(
    config: ExperimentConfig,
    datasets_gb: Optional[Sequence[float]] = None,
) -> List[GridPoint]:
    """One point per data set, under the full method comparison."""
    machine = config.machine()
    methods = tuple(standard_methods(fm_sizes_gb=config.fm_sizes_gb))
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
    """The sweep's comparison rows, flagging disks driven past 100 %."""
    for row in comparison_rows(point, by_label):
        row["overloaded"] = by_label[row["method"]].utilization > 1.0
        yield row


EXPERIMENT = GridExperiment(
    name="fig7",
    title=(
        "Fig. 7 -- energy (normalised to ALWAYS-ON) and performance "
        "vs data-set size"
    ),
    notes=(
        "Paper shape: JOINT lowest total energy at small data sets; "
        "FM methods with memory < data set blow up in latency and "
        "long-latency counts; PD lowest disk energy but >30% memory "
        "energy."
    ),
    points=points,
    rows=rows,
)
