"""Campaign plans: task lists plus the pure function that assembles rows.

A :class:`CampaignPlan` is the contract between the experiment/sweep
modules and the executor: ``tasks`` is the flat list of independent
units, ``assemble`` turns the aligned list of result payloads back into
the artefact (an ``ExperimentResult`` or sweep rows).  Every plan runs
through :func:`repro.campaign.executor.run_campaign` (``run_plan``
here, ``repro campaign`` in the CLI), so parallel runs are
byte-identical to serial ones by construction -- assembly only ever
sees payloads in task order.

:class:`GridPoint` models the shape every grid experiment has: one
machine + one workload, simulated under several methods, with the
always-on baseline among them for normalisation.  :func:`grid_plan` is
the one template every grid (the paper's sweeps and
:func:`repro.sim.sweep.sweep`) is planned and assembled through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.errors import CampaignError
from repro.config.machine import MachineConfig
from repro.policies.registry import MethodSpec, parse_method

from repro.campaign.executor import run_campaign
from repro.campaign.tasks import SimSummary, SimTask, Task, WorkloadSpec

#: Assemblers receive one payload dict per task, in task order.
Assembler = Callable[[Sequence[Mapping[str, Any]]], Any]


@dataclass
class CampaignPlan:
    """Tasks plus the function that turns their payloads into the artefact."""

    tasks: List[Task]
    assemble: Assembler


@dataclass(frozen=True)
class GridPoint:
    """One workload point simulated under several methods."""

    machine: MachineConfig
    workload: WorkloadSpec
    methods: Tuple[MethodSpec, ...]
    duration_s: float
    warmup_s: float = 0.0
    #: Row-identifying columns for this point, e.g. (("dataset_gb", 4.0),).
    meta: Tuple[Tuple[str, Any], ...] = ()

    def tasks(self) -> List[SimTask]:
        return [
            SimTask(
                method=method,
                machine=self.machine,
                workload=self.workload,
                duration_s=self.duration_s,
                warmup_s=self.warmup_s,
            )
            for method in self.methods
        ]


def resolve_methods(
    methods: Sequence[Union[str, MethodSpec]]
) -> Tuple[MethodSpec, ...]:
    return tuple(
        parse_method(m) if isinstance(m, str) else m for m in methods
    )


def grid_tasks(points: Sequence[GridPoint]) -> List[SimTask]:
    """Flatten points into tasks: point-major, method order preserved."""
    tasks: List[SimTask] = []
    for point in points:
        tasks.extend(point.tasks())
    return tasks


def split_by_point(
    points: Sequence[GridPoint],
    payloads: Sequence[Mapping[str, Any]],
) -> List[Tuple[GridPoint, Dict[str, SimSummary]]]:
    """Regroup flat task payloads into per-point ``label -> summary`` maps.

    The inverse of :func:`grid_tasks`; method order within each point is
    preserved, which keeps assembled row order identical to the serial
    comparison loop the experiments used before campaigns existed.
    """
    grouped: List[Tuple[GridPoint, Dict[str, SimSummary]]] = []
    cursor = 0
    for point in points:
        by_label: Dict[str, SimSummary] = {}
        for method in point.methods:
            payload = payloads[cursor]
            cursor += 1
            if payload is None:
                raise CampaignError(
                    f"missing result for {method.label} at point "
                    f"{dict(point.meta)!r}"
                )
            by_label[method.label] = SimSummary.from_payload(
                payload["summary"]
            )
        grouped.append((point, by_label))
    if cursor != len(payloads):
        raise CampaignError(
            f"grid shape mismatch: {len(payloads)} payload(s) for "
            f"{cursor} task(s)"
        )
    return grouped


#: Builds one point's rows from its ``label -> summary`` map.
PointRows = Callable[[GridPoint, Mapping[str, SimSummary]], Iterable[Dict[str, Any]]]


def grid_plan(
    points: Sequence[GridPoint],
    point_rows: PointRows,
    result: Callable[[List[Dict[str, Any]]], Any] = list,
) -> CampaignPlan:
    """The grid template: points -> tasks -> per-point summaries -> rows.

    Each row ``point_rows`` yields is prefixed with its point's ``meta``
    columns, in point order; ``result`` turns the row list into the
    artefact (the rows themselves by default).
    """
    points = list(points)

    def assemble(payloads: Sequence[Mapping[str, Any]]) -> Any:
        return result(
            [
                {**dict(point.meta), **row}
                for point, by_label in split_by_point(points, payloads)
                for row in point_rows(point, by_label)
            ]
        )

    return CampaignPlan(tasks=grid_tasks(points), assemble=assemble)


def run_plan(plan: CampaignPlan, **options: Any) -> Any:
    """Run a plan's tasks through :func:`run_campaign` and assemble the artefact.

    ``options`` are ``run_campaign``'s own (``jobs``, ``cache``,
    ``on_progress``, ...).  Raises :class:`CampaignError` naming the
    first task that still failed after its retries.
    """
    report = run_campaign(plan.tasks, **options)
    failed = report.failures()
    if failed:
        first = failed[0]
        raise CampaignError(
            f"{len(failed)} task(s) failed; first: {first.label}: {first.error}"
        )
    return plan.assemble(report.payloads())
