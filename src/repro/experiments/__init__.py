"""Experiment harness: one module per paper table/figure.

The registry maps the paper's artefact names (``fig7``, ``table3``, ...)
to experiments, and every experiment runs as
``run_plan(get_plan(name, config)) -> ExperimentResult``: the sweeps are
:class:`GridExperiment` declarations (points plus a row builder), the
rest a ``run(config)`` executed as one task.  The benchmarks run them
and print the same rows/series the paper reports, normalised against
the always-on method where the paper does so.
"""

from repro.experiments.base import ExperimentConfig, ExperimentResult, GridExperiment
from repro.experiments.registry import EXPERIMENTS, get_experiment, get_plan, list_experiments

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "GridExperiment",
    "get_experiment",
    "get_plan",
    "list_experiments",
]
