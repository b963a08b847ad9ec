"""Table IV: sensitivity of the joint method to the period length.

Paper setup: 16-GB data set at 100 MB/s; periods of 5, 10, 20 and 30
minutes.  The joint method's energy (normalised to always-on) and its
long-latency rate should vary only slightly, because the LRU history is
not reset at period boundaries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.campaign.plan import GridPoint, resolve_methods
from repro.experiments.base import ExperimentConfig, GridExperiment
from repro.sim.compare import BASELINE_LABEL

DEFAULT_PERIODS_MIN: Sequence[float] = (5.0, 10.0, 20.0, 30.0)


def points(
    config: ExperimentConfig,
    periods_min: Optional[Sequence[float]] = None,
) -> List[GridPoint]:
    """One JOINT vs ALWAYS-ON point per period length."""
    methods = resolve_methods(["JOINT", "ALWAYS-ON"])
    grid: List[GridPoint] = []
    for period_min in periods_min or DEFAULT_PERIODS_MIN:
        period_s = period_min * 60.0
        machine = config.machine(period_s=period_s)
        # Keep the measured window comparable across period lengths: use
        # the configured total duration, rounded to whole periods.
        total = config.duration_s
        warm = max(round(config.warmup_s / period_s), 1) * period_s
        duration = max(round(total / period_s), 2) * period_s
        if warm >= duration:
            warm = duration - period_s
        grid.append(
            GridPoint(
                machine=machine,
                workload=config.workload(
                    machine, seed_offset=300, duration_s=duration
                ),
                methods=methods,
                duration_s=duration,
                warmup_s=warm,
                meta=(("period_min", period_min),),
            )
        )
    return grid


def joint_rows(point, by_label):
    """JOINT's energies against ALWAYS-ON and its long-latency rate."""
    joint = by_label["JOINT"]
    norm = joint.normalized_to(by_label[BASELINE_LABEL])
    yield {
        "total_energy": round(norm.total_energy, 4),
        "disk_energy": round(norm.disk_energy, 4),
        "memory_energy": round(norm.memory_energy, 4),
        "long_latency_per_s": round(joint.long_latency_per_s, 4),
    }


EXPERIMENT = GridExperiment(
    name="table4",
    title="Table IV -- joint method vs period length (energy vs ALWAYS-ON)",
    notes=(
        "Paper shape: nearly flat across period lengths (the LRU list "
        "is not reset every period)."
    ),
    points=points,
    rows=joint_rows,
)
