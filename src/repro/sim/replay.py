"""Reproducible run specifications.

A :class:`RunSpec` captures everything needed to regenerate one result --
machine scale and overrides, workload parameters and seed, method name,
horizon -- as a small JSON document.  ``execute`` rebuilds the machine
and trace from scratch and runs the method, so two executions of the
same spec (any host, any time) produce identical results; ``save`` /
``load`` round-trip the spec through a file.

This is the unit of provenance for EXPERIMENTS.md-style claims: every
number can be pinned to a spec file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

from repro.config.machine import MachineConfig, paper_machine
from repro.errors import ReproError
from repro.sim.results import SimResult
from repro.sim.runner import run_method

PathLike = Union[str, Path]

#: Format version for forwards compatibility.
SPEC_VERSION = 1


@dataclass(frozen=True)
class RunSpec:
    """A fully deterministic simulation recipe."""

    method: str
    dataset_gb: float = 16.0
    rate_mb: float = 100.0
    popularity: float = 0.10
    write_fraction: float = 0.0
    scale: int = 1024
    periods: int = 5
    warmup_periods: int = 1
    period_s: float = 600.0
    seed: int = 42
    #: Free-form annotations (kept through save/load).
    notes: Dict[str, str] = field(default_factory=dict)

    # --- construction ------------------------------------------------------------

    def machine(self) -> MachineConfig:
        base = paper_machine().scaled(self.scale)
        manager = dataclasses.replace(base.manager, period_s=self.period_s)
        return MachineConfig(
            memory=base.memory,
            disk=base.disk,
            manager=manager,
            scale=base.scale,
        )

    @property
    def duration_s(self) -> float:
        return (self.periods + self.warmup_periods) * self.period_s

    @property
    def warmup_s(self) -> float:
        return self.warmup_periods * self.period_s

    def execute(self, audit: bool = True) -> SimResult:
        """Rebuild machine + workload and run the method."""
        from repro.campaign.tasks import WorkloadSpec  # avoids an import cycle

        machine = self.machine()
        trace = WorkloadSpec.for_machine(
            machine,
            dataset_gb=self.dataset_gb,
            rate_mb=self.rate_mb,
            popularity=self.popularity,
            duration_s=self.duration_s,
            seed=self.seed,
            write_fraction=self.write_fraction,
        ).build()
        return run_method(
            self.method,
            trace,
            machine,
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
            audit=audit,
        )

    # --- persistence -----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["version"] = SPEC_VERSION
        return data

    def save(self, path: PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        payload = dict(data)
        version = payload.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ReproError(f"unsupported run-spec version {version}")
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ReproError(f"unknown run-spec fields {sorted(unknown)}")
        return cls(**payload)  # type: ignore[arg-type]

    @classmethod
    def load(cls, path: PathLike) -> "RunSpec":
        path = Path(path)
        if not path.exists():
            raise ReproError(f"run spec not found: {path}")
        return cls.from_dict(json.loads(path.read_text()))


def fingerprint(result: SimResult) -> Dict[str, object]:
    """The stable facts of a result, for equality across executions."""
    return {
        "total_accesses": result.total_accesses,
        "disk_page_accesses": result.disk_page_accesses,
        "disk_write_pages": result.disk_write_pages,
        "spin_down_cycles": result.spin_down_cycles,
        "long_latency": result.long_latency,
        "memory_energy_j": round(result.memory_energy_j, 6),
        "disk_energy_j": round(result.disk_energy_j, 6),
    }
