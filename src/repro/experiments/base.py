"""Shared experiment configuration, result container and grid template.

``ExperimentConfig`` pins everything an experiment needs: the granularity
scale, period length, warm-up and measurement windows, workload seed and
the default workload parameters of the paper's Section V (100 MB/s rate,
popularity 0.1, 16-GB data set unless the experiment sweeps it).

Two profiles are provided: ``full_config()`` approximates the paper's
setup at granularity 1024, ``quick_config()`` is a down-sized profile for
tests and fast benchmark smoke runs.  Select via the ``REPRO_PROFILE``
environment variable (``full`` is the default for benchmarks).

``GridExperiment`` declares a sweep (its points, row builder, name,
title and notes); :func:`repro.experiments.registry.get_plan` turns it
into a campaign plan.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.plan import CampaignPlan, GridPoint, PointRows, grid_plan
from repro.campaign.tasks import WorkloadSpec
from repro.config.machine import MachineConfig, paper_machine
from repro.errors import ConfigError
from repro.policies.registry import MethodSpec
from repro.traces.trace import Trace
from repro.units import MB


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment."""

    #: Granularity factor (DESIGN.md Section 5).
    scale: int = 1024
    #: Manager period T, seconds (the paper's 10 min).
    period_s: float = 600.0
    #: Cold-start periods excluded from measurement.
    warmup_periods: int = 2
    #: Measured periods.
    measure_periods: int = 5
    #: Workload seed (experiments offset it per sweep point).
    seed: int = 42
    #: Default workload parameters (paper Section V-B).
    dataset_gb: float = 16.0
    data_rate_mb: float = 100.0
    popularity: float = 0.10
    #: FM sizes for the method comparison, GB.
    fm_sizes_gb: List[int] = field(default_factory=lambda: [8, 16, 32, 64, 128])

    def __post_init__(self) -> None:
        if self.warmup_periods < 0 or self.measure_periods <= 0:
            raise ConfigError("need non-negative warm-up and positive measurement")

    # --- derived ---------------------------------------------------------------

    @property
    def warmup_s(self) -> float:
        return self.warmup_periods * self.period_s

    @property
    def duration_s(self) -> float:
        return (self.warmup_periods + self.measure_periods) * self.period_s

    def machine(
        self,
        period_s: Optional[float] = None,
        bank_mb: Optional[int] = None,
    ) -> MachineConfig:
        """The scaled machine, with optional period/bank-size overrides."""
        base = paper_machine()
        if bank_mb is not None:
            memory = dataclasses.replace(
                base.memory, bank_bytes=bank_mb * MB
            )
            manager = dataclasses.replace(
                base.manager,
                enumeration_unit_bytes=max(
                    base.manager.enumeration_unit_bytes, bank_mb * MB
                ),
                min_memory_bytes=max(
                    base.manager.min_memory_bytes, bank_mb * MB
                ),
            )
            base = MachineConfig(memory=memory, disk=base.disk, manager=manager)
        machine = base.scaled(self.scale)
        manager = dataclasses.replace(
            machine.manager, period_s=period_s or self.period_s
        )
        return MachineConfig(
            memory=machine.memory,
            disk=machine.disk,
            manager=manager,
            scale=machine.scale,
        )

    def workload(
        self,
        machine: MachineConfig,
        dataset_gb: Optional[float] = None,
        data_rate_mb: Optional[float] = None,
        popularity: Optional[float] = None,
        seed_offset: int = 0,
        duration_s: Optional[float] = None,
        write_fraction: float = 0.0,
    ) -> WorkloadSpec:
        """The campaign workload spec for one sweep point.

        Overrides compare against ``None`` explicitly so an intentional
        ``0.0`` (e.g. zero popularity skew) is not silently replaced by
        the profile default.
        """
        return WorkloadSpec.for_machine(
            machine,
            dataset_gb=self.dataset_gb if dataset_gb is None else dataset_gb,
            rate_mb=self.data_rate_mb if data_rate_mb is None else data_rate_mb,
            popularity=self.popularity if popularity is None else popularity,
            duration_s=self.duration_s if duration_s is None else duration_s,
            seed=self.seed + seed_offset,
            write_fraction=write_fraction,
        )

    def point(
        self,
        machine: MachineConfig,
        methods: Tuple[MethodSpec, ...],
        meta: Tuple[Tuple[str, object], ...],
        **workload: object,
    ) -> GridPoint:
        """One sweep point over the profile's window; ``workload`` takes
        :meth:`workload`'s overrides."""
        return GridPoint(
            machine=machine,
            workload=self.workload(machine, **workload),
            methods=methods,
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
            meta=meta,
        )

    def make_trace(
        self,
        machine: MachineConfig,
        dataset_gb: Optional[float] = None,
        data_rate_mb: Optional[float] = None,
        popularity: Optional[float] = None,
        seed_offset: int = 0,
        duration_s: Optional[float] = None,
    ) -> Trace:
        """Generate the workload trace for one sweep point."""
        return self.workload(
            machine,
            dataset_gb=dataset_gb,
            data_rate_mb=data_rate_mb,
            popularity=popularity,
            seed_offset=seed_offset,
            duration_s=duration_s,
        ).build()


def full_config() -> ExperimentConfig:
    """Benchmark profile approximating the paper's setup."""
    return ExperimentConfig()


def quick_config() -> ExperimentConfig:
    """Small, fast profile for tests and smoke runs."""
    return ExperimentConfig(
        scale=4096,
        period_s=300.0,
        warmup_periods=1,
        measure_periods=2,
        fm_sizes_gb=[8, 16, 32, 128],
    )


def config_from_env() -> ExperimentConfig:
    """Profile selected by ``REPRO_PROFILE`` (``full`` or ``quick``)."""
    profile = os.environ.get("REPRO_PROFILE", "full").strip().lower()
    if profile == "quick":
        return quick_config()
    if profile == "full":
        return full_config()
    raise ConfigError(f"unknown REPRO_PROFILE {profile!r}")


@dataclass
class ExperimentResult:
    """Rows plus rendering metadata, returned by every experiment."""

    name: str
    title: str
    rows: List[Dict[str, object]]
    #: Optional free-form notes (scaling caveats, paper references).
    notes: str = ""

    def render(self) -> str:
        from repro.experiments.formatting import render_table

        text = render_table(self.rows, title=self.title)
        if self.notes:
            text += "\n" + self.notes
        return text


Rows = List[Dict[str, object]]


@dataclass(frozen=True)
class GridExperiment:
    """A grid experiment declared as data: its points, rows and labels.

    ``points(config, values=None)`` lays out the sweep, where ``values``
    (named after the swept axis) replaces the default swept values;
    ``rows`` builds one point's rows (see
    :func:`repro.campaign.plan.grid_plan`); ``pivot``, when set, reshapes
    the finished row list.
    """

    name: str
    title: str
    notes: str
    points: Callable[..., List[GridPoint]]
    rows: PointRows
    pivot: Optional[Callable[[Rows], Rows]] = None

    def plan(self, config: ExperimentConfig, *args, **kwargs) -> CampaignPlan:
        """The sweep as independent (point, method) simulation tasks;
        extra arguments go to ``points``."""

        def result(rows: Rows) -> ExperimentResult:
            if self.pivot is not None:
                rows = self.pivot(rows)
            return ExperimentResult(self.name, self.title, rows, self.notes)

        return grid_plan(self.points(config, *args, **kwargs), self.rows, result)
