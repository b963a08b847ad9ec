"""Hardware-sensitivity extension: the break-even trade-off, bent.

The paper's whole economy rests on two hardware constants: the disk's
savable static power (6.6 W) and the memory's per-MB static power
(0.656 mW/MB) -- their ratio is the *break-even memory size* (~10 GB)
above which DRAM can never pay for itself.  This experiment bends both
constants and watches the joint manager re-balance:

* much cheaper memory (or a hungrier disk) raises the break-even size,
  so the manager buys more cache and idles the disk;
* pricier memory lowers it, pinning the manager to the miss-ratio
  curve's knee.

A robustness result falls out on the way: within a ~2x band of either
constant the decision does not move at all -- the miss-ratio curve's
knee dominates, which is why the paper's method needs no precise power
calibration.  A final row runs the 2.5-in laptop-drive preset, whose
6-s break-even time and small powers change both knobs.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.campaign.plan import GridPoint, resolve_methods
from repro.config.machine import MachineConfig
from repro.config.presets import laptop_disk
from repro.experiments.base import ExperimentConfig, GridExperiment
from repro.sim.compare import BASELINE_LABEL
from repro.units import GB

#: (label, memory-power multiplier, disk-static-power multiplier).
DEFAULT_VARIANTS: Sequence = (
    ("paper", 1.0, 1.0),
    ("cheap-memory", 0.1, 1.0),
    ("pricey-memory", 10.0, 1.0),
    ("hungry-disk", 1.0, 4.0),
    ("laptop-disk", 1.0, None),  # None = swap in the 2.5-in preset
)


def _bend_machine(
    machine: MachineConfig, memory_factor: float, disk_factor: Optional[float]
) -> MachineConfig:
    """Scale the memory mode powers and/or swap the disk."""
    memory = machine.memory
    if memory_factor != 1.0:
        memory = dataclasses.replace(
            memory,
            mode_power_watts={
                mode: power * memory_factor
                for mode, power in memory.mode_power_watts.items()
            },
        )
    if disk_factor is None:
        disk = laptop_disk()
    elif disk_factor != 1.0:
        base = machine.disk
        powers = dict(base.mode_power_watts)
        # Raise the idle power so the savable static power scales while
        # the standby floor stays put.
        powers["idle"] = (
            powers["standby"] + base.static_power_watts * disk_factor
        )
        powers["active"] = powers["idle"] + base.dynamic_power_watts
        disk = dataclasses.replace(
            machine.disk,
            mode_power_watts=powers,
            transition_energy_joules=(
                base.transition_energy_joules * disk_factor
            ),
        )
    else:
        disk = machine.disk
    return MachineConfig(
        memory=memory, disk=disk, manager=machine.manager, scale=machine.scale
    )


def points(
    config: ExperimentConfig,
    variants: Optional[Sequence] = None,
) -> List[GridPoint]:
    """One JOINT vs ALWAYS-ON point per hardware variant.

    Every variant replays the same light, sparse-popularity workload: the
    utilisation constraint stays slack and the miss-ratio curve declines
    gently instead of dropping off a knee, so the energy terms -- the
    ones the hardware constants bend -- genuinely decide the memory size.
    """
    base_machine = config.machine()
    methods = resolve_methods(["JOINT", "ALWAYS-ON"])
    return [
        config.point(
            _bend_machine(base_machine, memory_factor, disk_factor),
            methods,
            (("variant", label),),
            data_rate_mb=5.0,
            popularity=0.6,
            seed_offset=800,
        )
        for label, memory_factor, disk_factor in (variants or DEFAULT_VARIANTS)
    ]


def rows(point, by_label):
    joint = by_label["JOINT"]
    norm = joint.normalized_to(by_label[BASELINE_LABEL])
    machine = point.machine
    chosen_gb = [b / GB for b in joint.decision_memory_bytes]
    yield {
        "break_even_mem_gb": round(machine.break_even_memory_bytes / GB, 2),
        "break_even_time_s": round(machine.disk.break_even_time_s, 2),
        "final_memory_gb": round(chosen_gb[-1], 2),
        "mean_memory_gb": round(sum(chosen_gb) / len(chosen_gb), 2),
        "total_energy": round(norm.total_energy, 4),
        "spin_downs": joint.spin_down_cycles,
    }


EXPERIMENT = GridExperiment(
    name="hwsens",
    title=(
        "Hardware sensitivity -- the joint method under bent "
        "break-even constants (16-GB workload)"
    ),
    notes=(
        "Expected: 10x-cheaper memory (or a 4x-hungrier disk) buys "
        "more cache; 10x-pricier memory pins the manager to the "
        "miss-ratio knee; ~2x changes move nothing (knee-dominated "
        "robustness); the laptop drive banks its smaller powers."
    ),
    points=points,
    rows=rows,
)
