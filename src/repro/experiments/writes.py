"""Write-traffic extension: what write-back does to spin-down savings.

Not a paper artefact -- the paper's SPECWeb99 workload is read-dominated
and its model only notes that "read, write, or seek requests" keep the
disk active.  This experiment supplies the missing axis: sweep the write
fraction and watch the periodic flusher (a 30-s pdflush-style sweep)
erode disk idleness.  Every flush is a disk request, so a single dirty
page per window caps the longest possible idle interval at the flush
interval -- well above the drive's 11.7-s break-even, but enough to
multiply spin-down cycles and wake delays for aggressive policies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.campaign.plan import GridPoint, resolve_methods
from repro.experiments.base import ExperimentConfig, GridExperiment
from repro.sim.compare import BASELINE_LABEL

DEFAULT_WRITE_FRACTIONS: Sequence[float] = (0.0, 0.05, 0.2)
METHODS: Sequence[str] = ("JOINT", "2TFM-16GB", "ADFM-16GB", "ALWAYS-ON")
RATE_MB: float = 20.0


def points(
    config: ExperimentConfig,
    write_fractions: Optional[Sequence[float]] = None,
) -> List[GridPoint]:
    """One point per write fraction."""
    machine = config.machine()
    methods = resolve_methods(METHODS)
    return [
        config.point(
            machine,
            methods,
            (("write_fraction", fraction),),
            data_rate_mb=RATE_MB,
            seed_offset=700 + index,
            write_fraction=fraction,
        )
        for index, fraction in enumerate(
            write_fractions or DEFAULT_WRITE_FRACTIONS
        )
    ]


def rows(point, by_label):
    baseline = by_label[BASELINE_LABEL]
    for label in METHODS:
        result = by_label[label]
        norm = result.normalized_to(baseline)
        yield {
            "method": label,
            "total_energy": round(norm.total_energy, 4),
            "disk_energy": round(norm.disk_energy, 4),
            "writeback_pages": result.disk_write_pages,
            "spin_downs": result.spin_down_cycles,
            "wake_long_latency": result.wake_long_latency,
        }


EXPERIMENT = GridExperiment(
    name="writes",
    title=(
        "Write-traffic extension -- energy and spin-down behaviour "
        "vs write fraction (16-GB set, 20 MB/s)"
    ),
    notes=(
        "Expected: write-back pages grow with the write fraction; "
        "the flusher keeps breaking idleness, so spin-down-happy "
        "policies cycle more; normalised savings shrink as writes "
        "grow."
    ),
    points=points,
    rows=rows,
)
