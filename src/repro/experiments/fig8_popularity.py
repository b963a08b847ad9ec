"""Fig. 8(c)/(d): energy and long-latency requests versus data popularity.

Paper setup: 16-GB data set at 5 MB/s ("high data rates hide the effect
of data popularity"), popularity ratio 0.05-0.6.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.campaign.plan import GridPoint
from repro.experiments.base import ExperimentConfig, GridExperiment
from repro.policies.registry import standard_methods
from repro.sim.compare import BASELINE_LABEL

DEFAULT_POPULARITIES: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.6)
RATE_MB: float = 5.0


def points(
    config: ExperimentConfig,
    popularities: Optional[Sequence[float]] = None,
) -> List[GridPoint]:
    """One point per popularity ratio, under the full method comparison."""
    machine = config.machine()
    methods = tuple(standard_methods(fm_sizes_gb=config.fm_sizes_gb))
    return [
        config.point(
            machine,
            methods,
            (("popularity", popularity),),
            data_rate_mb=RATE_MB,
            popularity=popularity,
            seed_offset=200 + index,
        )
        for index, popularity in enumerate(
            popularities or DEFAULT_POPULARITIES
        )
    ]


def rows(point, by_label):
    baseline = by_label[BASELINE_LABEL]
    for label, result in by_label.items():
        norm = result.normalized_to(baseline)
        yield {
            "method": label,
            "total_energy": round(norm.total_energy, 4),
            "long_latency_per_s": round(result.long_latency_per_s, 4),
        }


EXPERIMENT = GridExperiment(
    name="fig8pop",
    title=(
        "Fig. 8(c,d) -- normalised energy and long-latency requests "
        "vs popularity (16-GB data set, 5 MB/s)"
    ),
    notes=(
        "Paper shape: JOINT largest savings at dense popularity "
        "(small hot set -> small memory); methods caching the whole "
        "data set flat across popularity."
    ),
    points=points,
    rows=rows,
)
