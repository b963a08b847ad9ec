"""Fig. 8(a)/(b): energy and long-latency requests versus data rate.

Paper setup: 16-GB data set, rates 5-200 MB/s, popularity 0.1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.campaign.plan import GridPoint
from repro.experiments.base import ExperimentConfig, GridExperiment
from repro.policies.registry import standard_methods
from repro.sim.compare import BASELINE_LABEL

DEFAULT_RATES_MB: Sequence[float] = (5.0, 50.0, 100.0, 150.0, 200.0)


def points(
    config: ExperimentConfig,
    rates_mb: Optional[Sequence[float]] = None,
) -> List[GridPoint]:
    """One point per data rate, under the full method comparison."""
    machine = config.machine()
    methods = tuple(standard_methods(fm_sizes_gb=config.fm_sizes_gb))
    return [
        config.point(
            machine,
            methods,
            (("rate_mb_s", rate_mb),),
            data_rate_mb=rate_mb,
            seed_offset=100 + index,
        )
        for index, rate_mb in enumerate(rates_mb or DEFAULT_RATES_MB)
    ]


def rows(point, by_label):
    baseline = by_label[BASELINE_LABEL]
    for label, result in by_label.items():
        norm = result.normalized_to(baseline)
        yield {
            "method": label,
            "total_energy": round(norm.total_energy, 4),
            "long_latency_per_s": round(result.long_latency_per_s, 4),
            "utilization": round(result.utilization, 4),
        }


EXPERIMENT = GridExperiment(
    name="fig8rate",
    title=(
        "Fig. 8(a,b) -- normalised energy and long-latency requests "
        "vs data rate (16-GB data set)"
    ),
    notes=(
        "Paper shape: JOINT at or near the minimum across rates; "
        "methods with memory >= data set flat in energy; small-memory "
        "FM methods degrade sharply at high rates."
    ),
    points=points,
    rows=rows,
)
