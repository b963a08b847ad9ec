"""Ablation study: which part of the joint method earns its keep?

Not a paper artefact -- this regenerates the *argument* of the paper by
dismantling the method (DESIGN.md Section 6):

* ``JOINT``      -- the full TCAD method (both knobs + constraints),
* ``JOINT-NC``   -- the DATE-2005 original: both knobs, **no** performance
  constraints (Section IV-D warns it can thrash the disk or shrink memory
  pathologically),
* ``JOINT-MEM``  -- resize-only: memory adapts, the disk keeps the fixed
  2-competitive timeout,
* ``JOINT-TO``   -- timeout-only: memory pinned at the installed maximum,
  Pareto-tuned timeout (equivalently, the PT policy at full memory),
* ``ALWAYS-ON``  -- the normalisation baseline.

Expected shape: each single-knob variant leaves energy on the table
(JOINT-TO pays full memory power; JOINT-MEM cannot exploit idleness);
JOINT-NC matches or beats JOINT on energy but degrades the performance
metrics the constraints protect.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.campaign.plan import GridPoint, resolve_methods
from repro.experiments.base import ExperimentConfig, GridExperiment
from repro.sim.compare import BASELINE_LABEL

VARIANTS: Sequence[str] = (
    "JOINT",
    "JOINT-NC",
    "JOINT-MEM",
    "JOINT-TO",
    "ALWAYS-ON",
)


def points(
    config: ExperimentConfig,
    datasets_gb: Optional[Sequence[float]] = None,
) -> List[GridPoint]:
    """One point per data set, under every variant."""
    machine = config.machine()
    methods = resolve_methods(VARIANTS)
    return [
        config.point(
            machine,
            methods,
            (("dataset_gb", dataset_gb),),
            dataset_gb=dataset_gb,
            seed_offset=600 + index,
        )
        for index, dataset_gb in enumerate(datasets_gb or (4.0, 16.0))
    ]


def rows(point, by_label):
    baseline = by_label[BASELINE_LABEL]
    for label in VARIANTS:
        result = by_label[label]
        norm = result.normalized_to(baseline)
        yield {
            "variant": label,
            "total_energy": round(norm.total_energy, 4),
            "disk_energy": round(norm.disk_energy, 4),
            "memory_energy": round(norm.memory_energy, 4),
            "utilization": round(result.utilization, 4),
            "long_latency_per_s": round(result.long_latency_per_s, 4),
            "spin_downs": result.spin_down_cycles,
        }


EXPERIMENT = GridExperiment(
    name="ablation",
    title="Ablation -- dismantling the joint method (energy vs ALWAYS-ON)",
    notes=(
        "Expected: JOINT <= each single-knob variant in total energy; "
        "JOINT-TO pays full memory power.  JOINT-NC either matches "
        "JOINT (benign workloads) or falls into the Section IV-D "
        "pathology -- shrinking memory into a disk-thrashing "
        "configuration with runaway utilisation and long-latency "
        "counts, and *worse* energy than the constrained method, "
        "which is the TCAD paper's argument for the constraints."
    ),
    points=points,
    rows=rows,
)
