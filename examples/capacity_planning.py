"""Capacity planning with the extended LRU list -- no re-runs needed.

The paper's core trick (Section IV-B) is useful on its own: one pass over
an access trace with stack-distance instrumentation predicts the miss
count at *every* memory size.  This example builds the miss-ratio curve
for a workload, locates the break-even memory size (where extra DRAM
stops paying for the disk energy it saves) and prints the energy-optimal
configuration -- the static version of what the joint manager does every
period.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

from repro import generate_trace, scaled_machine
from repro.cache.predictor import ResizePredictor
from repro.cache.stack_distance import StackDistanceTracker
from repro.core.energy_model import evaluate_candidate
from repro.disk.service import ServiceModel
from repro.experiments.formatting import render_table
from repro.units import GB, MB


def main() -> None:
    machine = scaled_machine(1024)
    duration = 1800.0
    trace = generate_trace(
        dataset_bytes=16 * GB,
        data_rate=50 * MB,
        duration_s=duration,
        page_size=machine.page_bytes,
        file_scale=machine.scale,
        seed=11,
    )

    # One instrumentation pass: record (time, stack depth) per access.
    # The first half of the trace only warms the LRU history (like the
    # joint manager's earlier periods); predictions use the second half.
    depths = StackDistanceTracker().access_array(trace.pages)
    predictor = ResizePredictor()
    observe_from = duration / 2
    observed = trace.times >= observe_from
    predictor.record_array(trace.times[observed], depths[observed])

    candidates_gb = [1, 2, 4, 8, 12, 16, 24, 32, 64, 128]
    page = machine.page_bytes
    predictions = predictor.predict(
        [int(gb * GB) // page for gb in candidates_gb],
        window_s=machine.manager.aggregation_window_s,
        period_start=observe_from,
        period_end=duration,
    )

    service = ServiceModel(machine.disk, machine.page_bytes)
    rows = []
    for gb, prediction in zip(candidates_gb, predictions):
        evaluation = evaluate_candidate(
            machine, service, prediction, period_s=duration - observe_from
        )
        rows.append(
            {
                "memory_gb": gb,
                "predicted_misses": prediction.num_disk_accesses,
                "miss_ratio": round(
                    prediction.num_disk_accesses
                    / max(prediction.num_cache_accesses, 1),
                    4,
                ),
                "idle_intervals": prediction.idle.count,
                "mean_idle_s": round(prediction.idle.mean_length, 2),
                "timeout_s": None
                if evaluation.timeout_s is None
                else round(evaluation.timeout_s, 1),
                "est_power_w": round(evaluation.total_power_w, 2),
                "meets_util": evaluation.meets_utilization,
            }
        )
    print(
        render_table(
            rows,
            title="Predicted disk IO and power vs memory size (one trace pass)",
        )
    )

    feasible = [r for r in rows if r["meets_util"]]
    best = min(feasible or rows, key=lambda row: row["est_power_w"])
    print()
    print(
        f"Energy-optimal feasible size: {best['memory_gb']} GB "
        f"at ~{best['est_power_w']} W "
        f"(break-even memory is {machine.break_even_memory_bytes / GB:.1f} GB)"
    )


if __name__ == "__main__":
    main()
