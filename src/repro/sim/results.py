"""Simulation result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.joint import PeriodDecision
from repro.disk.energy import DiskEnergy
from repro.memory.energy import MemoryEnergy
from repro.sim.metrics import PeriodMetrics


@dataclass(frozen=True)
class RegretSummary:
    """How far one run landed from the offline optimum (see
    :mod:`repro.analysis.regret` for the full report and the bound's
    assumptions)."""

    #: Belady/OPT misses under the run's own capacity schedule.
    opt_misses: int
    #: Online misses minus OPT misses (>= 0 by the one-sided oracle).
    excess_misses: int
    #: Energy no schedule obeying the recorded capacities can beat, J.
    energy_lower_bound_j: float
    #: Online total energy over the lower bound (>= 1.0).
    energy_ratio: float


class RunTotals:
    """The totals derived from a run's scalar fields.

    One definition for :class:`SimResult` and the campaign's
    :class:`repro.campaign.tasks.SimSummary`, so rows assembled from
    either agree bit for bit.
    """

    label: str
    duration_s: float
    memory_energy_j: float
    disk_energy_j: float
    total_accesses: int
    disk_page_accesses: int
    mean_latency_s: float
    long_latency: int
    utilization: float

    @property
    def total_energy_j(self) -> float:
        return self.memory_energy_j + self.disk_energy_j

    @property
    def long_latency_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.long_latency / self.duration_s

    @property
    def miss_ratio(self) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.disk_page_accesses / self.total_accesses

    def normalized_to(self, baseline: "RunTotals") -> "NormalizedResult":
        """Energies as fractions of a baseline run (the always-on method)."""
        def ratio(x: float, base: float) -> float:
            return x / base if base > 0 else 0.0

        return NormalizedResult(
            label=self.label,
            total_energy=ratio(self.total_energy_j, baseline.total_energy_j),
            disk_energy=ratio(self.disk_energy_j, baseline.disk_energy_j),
            memory_energy=ratio(self.memory_energy_j, baseline.memory_energy_j),
            mean_latency_s=self.mean_latency_s,
            utilization=self.utilization,
            long_latency_per_s=self.long_latency_per_s,
        )


@dataclass(frozen=True)
class SimResult(RunTotals):
    """Outcome of running one power-management method on one trace."""

    label: str
    duration_s: float
    #: Energy, joules.
    memory_energy_j: float
    disk_energy_j: float
    #: Detailed accounting objects.
    memory_energy: MemoryEnergy
    disk_energy: DiskEnergy
    #: Performance.
    total_accesses: int
    disk_page_accesses: int
    disk_requests: int
    #: Dirty pages written back to disk (0 for read-only workloads).
    disk_write_pages: int
    mean_latency_s: float
    long_latency: int
    wake_long_latency: int
    spin_down_cycles: int
    utilization: float
    #: Per-period series (Fig. 9, Table IV diagnostics).
    periods: List[PeriodMetrics] = field(default_factory=list)
    #: Joint-manager decisions (empty for other methods).
    decisions: List[PeriodDecision] = field(default_factory=list)
    #: Which replay loop produced this result ("scalar", "vectorized" for
    #: fixed-capacity fast replays, or "epoch" for joint-manager fast
    #: replays); all paths produce bit-identical numbers, this records
    #: the one taken.
    replay_mode: str = "scalar"
    #: Offline-optimality regret (None unless the run asked for it via
    #: ``run_method(..., regret=True)`` / ``repro regret``).
    regret: Optional[RegretSummary] = None

    @property
    def average_power_w(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.total_energy_j / self.duration_s


@dataclass(frozen=True)
class NormalizedResult:
    """The six quantities of the paper's Fig. 7, one method at one workload."""

    label: str
    total_energy: float
    disk_energy: float
    memory_energy: float
    mean_latency_s: float
    utilization: float
    long_latency_per_s: float
