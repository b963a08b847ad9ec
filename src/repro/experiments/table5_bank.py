"""Table V: sensitivity of the joint method to the memory bank size.

Paper setup: 16-GB data set at 100 MB/s; bank sizes 16, 64, 256 and
1024 MB (the resize granularity).  Total energy and long-latency counts
stay nearly constant; larger banks shift a little energy from the disk to
the memory because the chosen memory rounds up to coarser units.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.campaign.plan import GridPoint, resolve_methods
from repro.experiments.base import ExperimentConfig, GridExperiment
from repro.experiments.table4_period import joint_rows

DEFAULT_BANKS_MB: Sequence[int] = (16, 64, 256, 1024)


def points(
    config: ExperimentConfig,
    banks_mb: Optional[Sequence[int]] = None,
) -> List[GridPoint]:
    """One JOINT vs ALWAYS-ON point per bank size."""
    methods = resolve_methods(["JOINT", "ALWAYS-ON"])
    return [
        config.point(
            config.machine(bank_mb=bank_mb),
            methods,
            (("bank_mb", bank_mb),),
            seed_offset=400,
        )
        for bank_mb in banks_mb or DEFAULT_BANKS_MB
    ]


EXPERIMENT = GridExperiment(
    name="table5",
    title="Table V -- joint method vs memory bank size (energy vs ALWAYS-ON)",
    notes=(
        "Paper shape: total energy and long-latency nearly constant; "
        "with larger banks the memory share grows slightly and the "
        "disk share falls."
    ),
    points=points,
    rows=joint_rows,
)
