"""The campaign task model.

A *task* is one independent, deterministic, picklable unit of work with a
stable content hash (:func:`repro.campaign.hashing.task_key`).  Three
kinds exist:

* :class:`SimTask` -- one (workload point, method) simulation, the unit
  the grid experiments and :func:`repro.sim.sweep.sweep` decompose into;
* :class:`ExperimentTask` -- a whole registered experiment, for runners
  that do not decompose into per-method units (fig5, fig9, idlefit);
* :class:`VerifyTask` -- one differential-verification check over a
  contiguous seed range (see :mod:`repro.verify.parallel`).

Every task's ``execute()`` returns a JSON-serialisable payload dict, so
results can be shipped across process boundaries, journaled, and stored
in the content-addressed cache without custom picklers.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.config.machine import MachineConfig
from repro.policies.registry import MethodSpec
from repro.sim.results import RunTotals, SimResult
from repro.traces.trace import Trace

from repro.campaign.hashing import task_key


# --- workload ----------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that determines a generated trace, seed included."""

    dataset_gb: float
    rate_mb: float
    popularity: float
    duration_s: float
    seed: int
    write_fraction: float = 0.0
    page_bytes: int = 4096
    file_scale: int = 1

    @classmethod
    def for_machine(
        cls,
        machine: MachineConfig,
        dataset_gb: float,
        rate_mb: float,
        popularity: float,
        duration_s: float,
        seed: int,
        write_fraction: float = 0.0,
    ) -> "WorkloadSpec":
        return cls(
            dataset_gb=float(dataset_gb),
            rate_mb=float(rate_mb),
            popularity=float(popularity),
            duration_s=float(duration_s),
            seed=int(seed),
            write_fraction=float(write_fraction),
            page_bytes=machine.page_bytes,
            file_scale=machine.scale,
        )

    def build(self) -> Trace:
        from repro.traces.specweb import generate_trace
        from repro.units import GB, MB

        return generate_trace(
            dataset_bytes=self.dataset_gb * GB,
            data_rate=self.rate_mb * MB,
            duration_s=self.duration_s,
            popularity=self.popularity,
            page_size=self.page_bytes,
            seed=self.seed,
            file_scale=self.file_scale,
            write_fraction=self.write_fraction,
        )


# --- the shared trace --------------------------------------------------------


class SharedTraces:
    """The traces one campaign run's tasks share: one entry, by spec.

    Tasks are planned point-major (:func:`repro.campaign.plan.grid_tasks`),
    so the methods of one point run back to back and one entry serves
    them all.  Each trace is frozen (:meth:`Trace.freeze`): no task can
    change another's input, and its fingerprint and warm-start pages
    are computed once.
    """

    def __init__(self) -> None:
        self.entry: Optional[Tuple[WorkloadSpec, Trace]] = None
        #: Traces built through this memo.
        self.builds = 0

    def get(self, spec: WorkloadSpec) -> Trace:
        if self.entry is not None and self.entry[0] == spec:
            return self.entry[1]
        self.entry = None  # drop the old trace before building the next
        trace = spec.build().freeze()
        self.builds += 1
        self.entry = (spec, trace)
        return trace


#: The memo of the ``run_campaign`` call in progress; None outside one,
#: where every task builds its own trace.
_shared: Optional[SharedTraces] = None


@contextmanager
def sharing_traces() -> Iterator[SharedTraces]:
    """Share traces between the tasks run in the ``with`` body."""
    global _shared
    previous, _shared = _shared, SharedTraces()
    try:
        yield _shared
    finally:
        _shared.entry = None
        _shared = previous


def start_sharing_traces() -> None:
    """Share traces for the rest of this process (a pool worker's life)."""
    global _shared
    _shared = SharedTraces()


def shared_trace(spec: WorkloadSpec) -> Trace:
    """``spec``'s trace, from the running campaign's memo when there is one."""
    if _shared is None:
        return spec.build()
    return _shared.get(spec)


# --- result summary ----------------------------------------------------------


@dataclass(frozen=True)
class SimSummary(RunTotals):
    """The JSON-safe slice of :class:`repro.sim.results.SimResult`.

    Carries every scalar the experiment assemblers read, plus the
    joint manager's per-period memory decisions (hw-sensitivity rows).
    Its totals and normalisation are ``SimResult``'s own
    (:class:`repro.sim.results.RunTotals`).
    """

    label: str
    duration_s: float
    memory_energy_j: float
    disk_energy_j: float
    total_accesses: int
    disk_page_accesses: int
    disk_requests: int
    disk_write_pages: int
    mean_latency_s: float
    long_latency: int
    wake_long_latency: int
    spin_down_cycles: int
    utilization: float
    decision_memory_bytes: Tuple[int, ...] = ()
    #: Which replay loop produced the run ("scalar", "vectorized",
    #: "missrun", "epoch", "writes" or "disable"); defaulted so payloads
    #: cached before the field existed still load.
    replay_mode: str = "scalar"
    #: Seconds the disk spent spun down in the measured window; the fleet
    #: report derives sleeping-disk counts from it.  Defaulted so
    #: pre-fleet cached payloads still load.
    disk_standby_s: float = 0.0
    #: Offline-optimality regret (see :mod:`repro.analysis.regret`);
    #: None unless the task asked for it (``SimTask(regret=True)``), and
    #: defaulted so pre-regret cached payloads still load.
    opt_misses: Optional[int] = None
    excess_misses: Optional[int] = None
    energy_lower_bound_j: Optional[float] = None
    energy_ratio: Optional[float] = None

    @classmethod
    def from_result(cls, result: SimResult) -> "SimSummary":
        return cls(
            label=result.label,
            duration_s=result.duration_s,
            memory_energy_j=result.memory_energy_j,
            disk_energy_j=result.disk_energy_j,
            total_accesses=result.total_accesses,
            disk_page_accesses=result.disk_page_accesses,
            disk_requests=result.disk_requests,
            disk_write_pages=result.disk_write_pages,
            mean_latency_s=result.mean_latency_s,
            long_latency=result.long_latency,
            wake_long_latency=result.wake_long_latency,
            spin_down_cycles=result.spin_down_cycles,
            utilization=result.utilization,
            decision_memory_bytes=tuple(
                int(d.memory_bytes) for d in result.decisions
            ),
            replay_mode=result.replay_mode,
            disk_standby_s=float(result.disk_energy.standby_s),
            opt_misses=(
                None if result.regret is None else result.regret.opt_misses
            ),
            excess_misses=(
                None if result.regret is None else result.regret.excess_misses
            ),
            energy_lower_bound_j=(
                None
                if result.regret is None
                else result.regret.energy_lower_bound_j
            ),
            energy_ratio=(
                None if result.regret is None else result.regret.energy_ratio
            ),
        )

    def to_payload(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["decision_memory_bytes"] = list(self.decision_memory_bytes)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SimSummary":
        data = dict(payload)
        data["decision_memory_bytes"] = tuple(
            int(b) for b in data.get("decision_memory_bytes", ())
        )
        return cls(**data)


# --- tasks -------------------------------------------------------------------


@dataclass(frozen=True)
class SimTask:
    """One (workload point, method) simulation unit."""

    method: MethodSpec
    machine: MachineConfig
    workload: WorkloadSpec
    duration_s: float
    warmup_s: float = 0.0
    #: Also score the run against the offline oracles
    #: (:mod:`repro.analysis.regret`); needs ``warmup_s == 0``.
    regret: bool = False

    kind = "sim"

    def payload(self) -> Dict[str, Any]:
        payload = {
            "kind": self.kind,
            "method": dataclasses.asdict(self.method),
            "machine": dataclasses.asdict(self.machine),
            "workload": dataclasses.asdict(self.workload),
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
        }
        # Only present when set, so every pre-regret cache key is stable.
        if self.regret:
            payload["regret"] = True
        return payload

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        w = self.workload
        return (
            f"sim:{self.method.label} "
            f"({w.dataset_gb:g}GB, {w.rate_mb:g}MB/s, p={w.popularity:g}, "
            f"seed {w.seed})"
        )

    def execute(self) -> Dict[str, Any]:
        from repro.sim.runner import run_method

        trace = shared_trace(self.workload)
        result = run_method(
            self.method,
            trace,
            self.machine,
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
            regret=self.regret,
        )
        return {
            "kind": self.kind,
            "summary": SimSummary.from_result(result).to_payload(),
        }


@dataclass(frozen=True)
class ExperimentTask:
    """A whole registered experiment as one atomic, cacheable unit."""

    name: str
    config: Any  # repro.experiments.base.ExperimentConfig (kept lazy)

    kind = "experiment"

    def payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "config": dataclasses.asdict(self.config),
        }

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return f"experiment:{self.name}"

    def execute(self) -> Dict[str, Any]:
        from repro.experiments.registry import get_experiment

        result = get_experiment(self.name)(self.config)
        return {
            "kind": self.kind,
            "name": result.name,
            "title": result.title,
            "rows": result.rows,
            "notes": result.notes,
        }


@dataclass(frozen=True)
class VerifyTask:
    """One differential check over ``seeds`` fuzzed workloads."""

    check: str
    first_seed: int
    seeds: int
    max_accesses: int = 300

    kind = "verify"

    def payload(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "check": self.check,
            "first_seed": self.first_seed,
            "seeds": self.seeds,
            "max_accesses": self.max_accesses,
        }

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        stop = self.first_seed + self.seeds
        return f"verify:{self.check}[{self.first_seed}..{stop})"

    def execute(self) -> Dict[str, Any]:
        from repro.verify.differential import run_differential

        report = run_differential(
            seeds=self.seeds,
            checks=[self.check],
            first_seed=self.first_seed,
            max_accesses=self.max_accesses,
        )
        outcome = report.outcomes[0]
        divergence = (
            None
            if outcome.divergence is None
            else dataclasses.asdict(outcome.divergence)
        )
        return {
            "kind": self.kind,
            "check": outcome.name,
            "first_seed": self.first_seed,
            "seeds": self.seeds,
            "seeds_run": outcome.seeds_run,
            "divergence": divergence,
        }


#: Anything run_campaign accepts.
Task = Any


def timed_execute(task: Task) -> Tuple[Dict[str, Any], float]:
    """Run one task, timing it in-worker: the module-level entry point
    worker processes import."""
    start = time.perf_counter()
    payload = task.execute()
    return payload, time.perf_counter() - start
