"""Experiment name -> declaration.

Grid experiments are :class:`GridExperiment` declarations that fan out
into per (point, method) simulation tasks; the rest (fig5, fig9,
idlefit) are runners that execute whole, as one atomic
:class:`repro.campaign.tasks.ExperimentTask` -- still cached and
journaled, just not subdivided.  Either way an experiment runs as
``run_plan(get_plan(name, config))``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.campaign.plan import CampaignPlan
from repro.campaign.tasks import ExperimentTask
from repro.errors import ReproError
from repro.experiments import (
    ablation,
    fig5_pareto,
    fig7_dataset,
    fig8_popularity,
    fig8_rate,
    fig9_timeseries,
    hw_sensitivity,
    idle_fit,
    table3_accesses,
    table4_period,
    table5_bank,
    writes,
)
from repro.experiments.base import ExperimentConfig, ExperimentResult, GridExperiment

Runner = Callable[[ExperimentConfig], ExperimentResult]

EXPERIMENTS: Dict[str, Union[GridExperiment, Runner]] = {
    "ablation": ablation.EXPERIMENT,
    "fig5": fig5_pareto.run,
    "fig7": fig7_dataset.EXPERIMENT,
    "fig8rate": fig8_rate.EXPERIMENT,
    "fig8pop": fig8_popularity.EXPERIMENT,
    "fig9": fig9_timeseries.run,
    "hwsens": hw_sensitivity.EXPERIMENT,
    "idlefit": idle_fit.run,
    "table3": table3_accesses.EXPERIMENT,
    "table4": table4_period.EXPERIMENT,
    "table5": table5_bank.EXPERIMENT,
    "writes": writes.EXPERIMENT,
}


def get_experiment(name: str) -> Union[GridExperiment, Runner]:
    """Look up an experiment by its paper-artefact name."""
    key = name.strip().lower()
    if key not in EXPERIMENTS:
        raise ReproError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[key]


def list_experiments() -> List[str]:
    return sorted(EXPERIMENTS)


def get_plan(name: str, config: ExperimentConfig) -> CampaignPlan:
    """An experiment's campaign plan: its independent task decomposition."""
    experiment = get_experiment(name)
    if isinstance(experiment, GridExperiment):
        return experiment.plan(config)
    key = name.strip().lower()

    def assemble(payloads) -> ExperimentResult:
        payload = payloads[0]
        if payload is None:
            raise ReproError(f"experiment {key!r} task produced no result")
        return ExperimentResult(
            name=payload["name"],
            title=payload["title"],
            rows=payload["rows"],
            notes=payload.get("notes", ""),
        )

    return CampaignPlan(
        tasks=[ExperimentTask(name=key, config=config)], assemble=assemble
    )
