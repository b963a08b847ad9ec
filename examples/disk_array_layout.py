"""Data layout vs spin-down on a four-disk array (paper Section VI).

The paper leaves multiple disks as future work but names the key design
question: data layout.  This example answers it for the spin-down world:
serve one web workload from a 4-drive array under (a) a partitioned
layout that concentrates hot data on few spindles and (b) RAID-0-style
striping, each drive running its own 2-competitive timeout.

Expected outcome -- the effect Pinheiro & Bianchini exploit in the
disk-array work the paper cites [31]: partitioning parks the cold
spindles in standby almost permanently, striping keeps all four awake.

Run:  python examples/disk_array_layout.py
"""

from __future__ import annotations

from repro import generate_trace, scaled_machine
from repro.experiments.formatting import render_table
from repro.fleet import FleetEngine, PartitionedLayout, StripedLayout
from repro.memory.system import NapMemorySystem
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.sim.prefill import warm_start_pages
from repro.units import GB, MB

NUM_DISKS = 4
DATASET_GB = 8


def run_layout(machine, trace, layout, label):
    memory = NapMemorySystem(machine.memory, 8 * GB)
    memory.prefill(warm_start_pages(trace))
    engine = FleetEngine(
        machine,
        memory,
        layout,
        policy_factory=lambda: FixedTimeoutPolicy(machine.disk.break_even_time_s),
        label=label,
    )
    return engine.run(trace, duration_s=1800.0, warmup_s=600.0)


def main() -> None:
    machine = scaled_machine(1024)
    trace = generate_trace(
        dataset_bytes=DATASET_GB * GB,
        data_rate=20 * MB,
        duration_s=1800.0,
        popularity=0.1,
        page_size=machine.page_bytes,
        file_scale=machine.scale,
        seed=17,
    )
    pages_total = DATASET_GB * GB // machine.page_bytes

    partitioned = run_layout(
        machine,
        trace,
        PartitionedLayout(NUM_DISKS, pages_per_disk=pages_total // NUM_DISKS),
        "partitioned",
    )
    striped = run_layout(
        machine, trace, StripedLayout(NUM_DISKS, extent_pages=4), "striped"
    )

    rows = []
    for result in (partitioned, striped):
        rows.append(
            {
                "layout": result.label,
                "disk_energy_kJ": round(result.disk_energy_j / 1e3, 2),
                "spin_downs": result.spin_down_cycles,
                "disks_mostly_asleep": result.sleeping_disks,
                "misses": result.disk_page_accesses,
                "mean_latency_ms": round(result.mean_latency_s * 1e3, 2),
            }
        )
    print(render_table(rows, title=f"{NUM_DISKS}-disk array, per-disk 2T timeout"))
    print()
    for result in (partitioned, striped):
        fractions = ", ".join(f"{f:.0%}" for f in result.standby_fractions)
        print(f"{result.label:12s} standby time per disk: {fractions}")


if __name__ == "__main__":
    main()
