"""Generic parameter sweeps over workloads and methods.

The experiment modules hard-code the paper's sweeps; this utility is the
open-ended version for users: give it a grid of workload parameters and
a list of methods, get back one flat row per (point, method) -- the same
shape every experiment table uses, ready for
:func:`repro.experiments.formatting.render_table`.

A sweep decomposes into independent campaign tasks
(:func:`sweep_plan`), so it can fan out over a process pool and share
the content-addressed result cache: pass ``jobs``/``cache`` to
:func:`sweep`, or feed the plan to :func:`repro.campaign.plan.run_plan`
yourself.  Serial and parallel runs assemble rows in the same task
order, so their output is identical byte for byte.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.campaign.plan import CampaignPlan, GridPoint, grid_plan, resolve_methods, run_plan
from repro.campaign.tasks import WorkloadSpec
from repro.config.machine import MachineConfig
from repro.errors import ReproError
from repro.policies.registry import MethodSpec, parse_method
from repro.sim.compare import BASELINE_LABEL

#: Workload-grid keys the sweep understands.
WORKLOAD_KEYS = ("dataset_gb", "rate_mb", "popularity", "write_fraction")

#: Grid values that must be strictly positive (a zero data set, rate or
#: popularity produces a degenerate or undefined workload).
_POSITIVE_KEYS = ("dataset_gb", "rate_mb", "popularity")


def _validate_and_dedupe(grid: Dict[str, Iterable]) -> Dict[str, List[float]]:
    """Check grid values are finite and in range; drop repeated values.

    Repeated values would re-simulate identical points (``itertools.product``
    happily enumerates them), so duplicates are removed up front, keeping
    first-occurrence order.
    """
    unknown = set(grid) - set(WORKLOAD_KEYS)
    if unknown:
        raise ReproError(
            f"unknown sweep parameters {sorted(unknown)}; "
            f"supported: {WORKLOAD_KEYS}"
        )
    if not grid:
        raise ReproError("empty sweep grid")
    clean: Dict[str, List[float]] = {}
    for key, values in grid.items():
        deduped = list(dict.fromkeys(values))
        if not deduped:
            raise ReproError(f"sweep parameter {key!r} has no values")
        for value in deduped:
            number = float(value)
            if not math.isfinite(number):
                raise ReproError(
                    f"sweep parameter {key!r} has non-finite value {value!r}"
                )
            if key in _POSITIVE_KEYS and number <= 0:
                raise ReproError(
                    f"sweep parameter {key!r} must be positive, got {value!r}"
                )
            if key == "write_fraction" and not 0.0 <= number <= 1.0:
                raise ReproError(
                    f"sweep parameter 'write_fraction' must be in [0, 1], "
                    f"got {value!r}"
                )
        clean[key] = deduped
    return clean


def sweep_plan(
    machine: MachineConfig,
    methods: Sequence[Union[str, MethodSpec]],
    grid: Dict[str, Iterable],
    duration_s: float,
    warmup_s: float = 0.0,
    seed: int = 42,
    defaults: Optional[Dict[str, float]] = None,
) -> CampaignPlan:
    """The sweep as a campaign plan: independent (point, method) tasks.

    ``grid`` maps workload-parameter names (a subset of
    ``dataset_gb, rate_mb, popularity, write_fraction``) to the values to
    sweep; the cross product is explored after validation and value
    deduplication.  ``defaults`` fills the parameters not swept.
    """
    clean = _validate_and_dedupe(grid)
    specs = resolve_methods(methods)
    if BASELINE_LABEL not in {spec.label for spec in specs}:
        specs += (parse_method(BASELINE_LABEL),)

    base = {
        "dataset_gb": 16.0,
        "rate_mb": 100.0,
        "popularity": 0.1,
        "write_fraction": 0.0,
    }
    base.update(defaults or {})

    keys = sorted(clean)
    points: List[GridPoint] = []
    for index, combo in enumerate(itertools.product(*(clean[k] for k in keys))):
        point = dict(base)
        point.update(dict(zip(keys, combo)))
        workload = WorkloadSpec.for_machine(
            machine,
            dataset_gb=point["dataset_gb"],
            rate_mb=point["rate_mb"],
            popularity=point["popularity"],
            duration_s=duration_s,
            seed=seed + index,
            write_fraction=point["write_fraction"],
        )
        points.append(
            GridPoint(
                machine=machine,
                workload=workload,
                methods=specs,
                duration_s=duration_s,
                warmup_s=warmup_s,
                meta=tuple((key, point[key]) for key in keys),
            )
        )
    return grid_plan(points, comparison_rows)


def comparison_rows(point, by_label) -> Iterator[Dict[str, object]]:
    """One row per method: energies normalised to the always-on run,
    then the performance columns."""
    baseline = by_label[BASELINE_LABEL]
    for label, result in by_label.items():
        normalized = result.normalized_to(baseline)
        yield {
            "method": label,
            "total_energy": round(normalized.total_energy, 4),
            "disk_energy": round(normalized.disk_energy, 4),
            "memory_energy": round(normalized.memory_energy, 4),
            "latency_ms": round(result.mean_latency_s * 1e3, 3),
            "utilization": round(result.utilization, 4),
            "long_latency_per_s": round(result.long_latency_per_s, 4),
        }


def sweep(
    machine: MachineConfig,
    methods: Sequence[Union[str, MethodSpec]],
    grid: Dict[str, Iterable],
    duration_s: float,
    warmup_s: float = 0.0,
    seed: int = 42,
    defaults: Optional[Dict[str, float]] = None,
    jobs: int = 1,
    cache=None,
) -> List[Dict[str, object]]:
    """Run every method on every grid point.

    Returns one row per (point, method) holding the swept parameters,
    the method label, normalised energies and the performance columns.
    The grid runs through :func:`repro.campaign.plan.run_plan`:
    ``jobs > 1`` fans it out over a process pool; pass a
    :class:`repro.campaign.cache.ResultCache` as ``cache`` to skip
    already-computed points.  Both options produce rows identical to the
    serial, uncached run.
    """
    return run_plan(
        sweep_plan(
            machine,
            methods,
            grid,
            duration_s,
            warmup_s=warmup_s,
            seed=seed,
            defaults=defaults,
        ),
        jobs=jobs,
        cache=cache,
    )
