"""The array-level power manager: shared cache, per-disk policies, migration.

One memory system (the disk cache) absorbs hits; misses route through
the data layout to per-disk drives.  On top of the static substrate
(the scalar replay that :class:`~repro.verify.fleet.MultiDiskEngine`
keeps as the parity oracle), the :class:`FleetEngine` adds the two
period-boundary mechanisms the paper's Section VI extension needs:

* **per-disk, per-period timeouts** -- every disk owns its own policy
  instance, and policies that implement ``on_period`` (e.g. the Pareto
  refit of :class:`~repro.policies.pareto_timeout.ParetoTimeoutPolicy`)
  are re-consulted at each boundary, so a disk's spin-down timeout
  follows *its own* observed inter-miss gaps;
* **hot-data migration** -- with a
  :class:`~repro.fleet.layout.MigratingLayout`, each boundary packs the
  period's hot set onto few spindles.  The transfer cost is explicit:
  the pages moved are submitted as batched sequential I/O to the source
  (read) *and* destination (write) disks at the boundary time, so the
  normal drive accounting charges the transfer energy, wakes sleeping
  destinations, and delays client requests queued behind the copy.

Bit-exactness contract: when the layout is static *and* no policy
overrides ``on_period``, boundary processing is skipped entirely and the
replay performs the exact operation sequence of ``MultiDiskEngine`` --
the same floats added in the same order -- which ``CHECKS["fleet"]``
verifies field for field.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config.machine import MachineConfig
from repro.disk.energy import DiskEnergy
from repro.disk.service import ServiceModel
from repro.errors import SimulationError
from repro.fleet.array import DiskArray
from repro.fleet.layout import DataLayout, MigratingLayout, Move
from repro.memory.system import MemorySystem
from repro.policies.base import NO_CHANGE, DiskPolicy
from repro.sim.engine import SEQUENTIAL_MERGE_WINDOW_S
from repro.sim.metrics import MetricsCollector
from repro.traces.trace import Trace

PolicyFactory = Callable[[], DiskPolicy]


@dataclass(frozen=True)
class MultiDiskResult:
    """Outcome of one multi-disk run."""

    label: str
    duration_s: float
    num_disks: int
    memory_energy_j: float
    disk_energy_j: float
    #: Per-disk counters, index-aligned with the array.
    per_disk: List[DiskEnergy]
    total_accesses: int
    disk_page_accesses: int
    mean_latency_s: float
    long_latency: int
    spin_down_cycles: int
    #: Fraction of the window each disk spent in standby.
    standby_fractions: List[float] = field(default_factory=list)

    @property
    def total_energy_j(self) -> float:
        return self.memory_energy_j + self.disk_energy_j

    @property
    def sleeping_disks(self) -> int:
        """Disks that spent most of the window spun down."""
        return sum(1 for f in self.standby_fractions if f > 0.5)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict; inverse of :meth:`from_payload`."""
        return {
            "label": self.label,
            "duration_s": self.duration_s,
            "num_disks": self.num_disks,
            "memory_energy_j": self.memory_energy_j,
            "disk_energy_j": self.disk_energy_j,
            "per_disk": [dataclasses.asdict(e) for e in self.per_disk],
            "total_accesses": self.total_accesses,
            "disk_page_accesses": self.disk_page_accesses,
            "mean_latency_s": self.mean_latency_s,
            "long_latency": self.long_latency,
            "spin_down_cycles": self.spin_down_cycles,
            "standby_fractions": list(self.standby_fractions),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MultiDiskResult":
        data = dict(payload)
        data["per_disk"] = [DiskEnergy(**e) for e in data["per_disk"]]
        data["standby_fractions"] = [
            float(f) for f in data["standby_fractions"]
        ]
        return cls(**data)


@dataclass(frozen=True)
class MigrationRecord:
    """One period boundary's applied migration and its charged cost."""

    time_s: float
    moved_pages: int
    #: ``(disk_index, pages read)`` per source disk, index-sorted.
    src_pages: Tuple[Tuple[int, int], ...]
    #: ``(disk_index, pages written)`` per destination disk, index-sorted.
    dst_pages: Tuple[Tuple[int, int], ...]
    #: Service seconds the transfer submits occupied across the array.
    active_s: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "moved_pages": self.moved_pages,
            "src_pages": [list(pair) for pair in self.src_pages],
            "dst_pages": [list(pair) for pair in self.dst_pages],
            "active_s": self.active_s,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MigrationRecord":
        return cls(
            time_s=float(payload["time_s"]),
            moved_pages=int(payload["moved_pages"]),
            src_pages=tuple(
                (int(d), int(n)) for d, n in payload["src_pages"]
            ),
            dst_pages=tuple(
                (int(d), int(n)) for d, n in payload["dst_pages"]
            ),
            active_s=float(payload["active_s"]),
        )


@dataclass(frozen=True)
class FleetResult(MultiDiskResult):
    """A :class:`MultiDiskResult` plus migration and timeout telemetry."""

    pages_migrated: int = 0
    #: Total service seconds of migration I/O (reads + writes).
    migration_active_s: float = 0.0
    #: Active-power joules of that I/O (``active_s`` x active watts).
    migration_energy_j: float = 0.0
    migrations: Tuple[MigrationRecord, ...] = ()
    #: Per-disk timeout changes applied at period boundaries.
    timeout_updates: int = 0

    def to_payload(self) -> Dict[str, Any]:
        payload = super().to_payload()
        payload.update(
            {
                "pages_migrated": self.pages_migrated,
                "migration_active_s": self.migration_active_s,
                "migration_energy_j": self.migration_energy_j,
                "migrations": [m.to_payload() for m in self.migrations],
                "timeout_updates": self.timeout_updates,
            }
        )
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FleetResult":
        data = dict(payload)
        data["per_disk"] = [DiskEnergy(**e) for e in data["per_disk"]]
        data["standby_fractions"] = [
            float(f) for f in data["standby_fractions"]
        ]
        data["migrations"] = tuple(
            MigrationRecord.from_payload(m) for m in data["migrations"]
        )
        return cls(**data)


def _charge_migration(
    array: DiskArray, now: float, moves: List[Move]
) -> MigrationRecord:
    """Submit a migration plan's transfer I/O and return its record.

    Each participating disk gets one batched sequential request: the
    sources read the outgoing pages, the destinations write the incoming
    ones.  Both sides are charged -- a destination that was asleep wakes
    (and pays the transition), exactly the interference the cost model
    must capture.  Module-level on purpose: the mutation test in
    ``tests/verify/test_fleet_check.py`` monkeypatches this with a
    version that forgets the destination writes and asserts
    ``CHECKS["fleet"]``'s conservation invariants catch it.
    """
    src_counts: Dict[int, int] = {}
    dst_counts: Dict[int, int] = {}
    for _page, source, destination in moves:
        src_counts[source] = src_counts.get(source, 0) + 1
        dst_counts[destination] = dst_counts.get(destination, 0) + 1
    active_s = 0.0
    for disk_index in sorted(src_counts):
        result = array.disks[disk_index].submit(
            now, src_counts[disk_index], sequential=True
        )
        active_s += result.finish_s - result.start_s
    for disk_index in sorted(dst_counts):
        result = array.disks[disk_index].submit(
            now, dst_counts[disk_index], sequential=True
        )
        active_s += result.finish_s - result.start_s
    return MigrationRecord(
        time_s=now,
        moved_pages=len(moves),
        src_pages=tuple(sorted(src_counts.items())),
        dst_pages=tuple(sorted(dst_counts.items())),
        active_s=active_s,
    )


def _overrides_on_period(policy: DiskPolicy) -> bool:
    """Whether the policy actually implements the period hook."""
    return type(policy).on_period is not DiskPolicy.on_period


class FleetEngine:
    """Replay a trace against a shared cache and a power-managed array."""

    def __init__(
        self,
        machine: MachineConfig,
        memory: MemorySystem,
        layout: DataLayout,
        policy_factory: PolicyFactory,
        label: str = "fleet",
    ) -> None:
        self.machine = machine
        self.memory = memory
        self.label = label
        service = ServiceModel(machine.disk, machine.page_bytes)
        self.array = DiskArray(machine.disk, service, layout)
        self.layout = layout
        self.policies = [policy_factory() for _ in range(layout.num_disks)]
        self.migrating = isinstance(layout, MigratingLayout)
        #: Period boundaries are only processed when something observes
        #: them; otherwise the replay is operation-for-operation the
        #: MultiDiskEngine loop (splitting passive accrual spans at
        #: boundaries would change float addition order).
        self._period_hooks = self.migrating or any(
            _overrides_on_period(policy) for policy in self.policies
        )

    def run(
        self,
        trace: Trace,
        duration_s: Optional[float] = None,
        warmup_s: float = 0.0,
    ) -> FleetResult:
        machine = self.machine
        period = machine.manager.period_s
        if duration_s is None:
            periods = max(int(np.ceil(trace.duration_s / period)), 1)
            duration_s = periods * period
        if warmup_s < 0 or warmup_s >= duration_s:
            raise SimulationError("warm-up must be within the duration")

        if trace.has_writes:
            raise SimulationError(
                "the fleet engine does not model write-back yet; "
                "strip writes or use the single-disk SimulationEngine"
            )
        metrics = MetricsCollector(
            period_s=period,
            long_latency_threshold_s=machine.manager.long_latency_threshold_s,
            aggregation_window_s=machine.manager.aggregation_window_s,
        )
        array = self.array
        memory = self.memory
        layout = self.layout
        for index, policy in enumerate(self.policies):
            array.set_timeout(0.0, index, policy.initial_timeout())

        last_miss_page = [-2] * array.num_disks
        last_miss_time = [-np.inf] * array.num_disks
        mem_mark = memory.energy.snapshot() if warmup_s == 0 else None
        disk_marks = array.snapshots() if warmup_s == 0 else None
        measuring = warmup_s == 0
        hooks = self._period_hooks
        next_boundary = period
        migrations: List[MigrationRecord] = []
        timeout_updates = 0

        for now, page in zip(trace.times.tolist(), trace.pages.tolist()):
            if now >= duration_s:
                break
            while hooks and next_boundary <= now and next_boundary < duration_s:
                timeout_updates += self._on_boundary(next_boundary, migrations)
                next_boundary += period
            if not measuring and now >= warmup_s:
                memory.checkpoint(warmup_s)
                array.checkpoint(warmup_s)
                mem_mark = memory.energy.snapshot()
                disk_marks = array.snapshots()
                metrics = MetricsCollector(
                    period_s=period,
                    long_latency_threshold_s=(
                        machine.manager.long_latency_threshold_s
                    ),
                    aggregation_window_s=machine.manager.aggregation_window_s,
                )
                measuring = True

            hit = memory.access(now, page)
            if hit:
                metrics.on_hit(now)
                continue

            disk_index = layout.disk_of(page)
            if self.migrating:
                layout.record_access(page)
            sequential = (
                page == last_miss_page[disk_index] + 1
                and now - last_miss_time[disk_index] <= SEQUENTIAL_MERGE_WINDOW_S
            )
            last_miss_page[disk_index] = page
            last_miss_time[disk_index] = now

            disk = array.disks[disk_index]
            idle_before = max(now - disk.busy_until, 0.0)
            result = disk.submit(now, 1, sequential=sequential)
            metrics.on_miss(now, result.latency_s, result.wake_delay_s)

            policy = self.policies[disk_index]
            update = policy.on_request(
                now, result.latency_s, result.wake_delay_s, idle_before
            )
            if update is not NO_CHANGE:
                disk.set_timeout(now, update)

        # Boundaries in the idle tail: timeouts keep refitting (on no new
        # evidence) and a pending migration plan still applies, exactly
        # as a live array would behave after its clients go quiet.
        while hooks and next_boundary < duration_s:
            timeout_updates += self._on_boundary(next_boundary, migrations)
            next_boundary += period

        if not measuring:
            memory.checkpoint(warmup_s)
            array.checkpoint(warmup_s)
            mem_mark = memory.energy.snapshot()
            disk_marks = array.snapshots()
        array.finalize(duration_s)
        memory.finalize(duration_s)
        assert mem_mark is not None and disk_marks is not None

        observed = duration_s - warmup_s
        per_disk = [
            disk.energy.minus(mark)
            for disk, mark in zip(array.disks, disk_marks)
        ]
        disk_energy = sum(
            energy.total_joules(machine.disk) for energy in per_disk
        )
        memory_energy = memory.energy.minus(mem_mark)
        standby_fractions = [
            energy.standby_s / observed if observed > 0 else 0.0
            for energy in per_disk
        ]
        migration_active_s = 0.0
        pages_migrated = 0
        for record in migrations:
            migration_active_s += record.active_s
            pages_migrated += record.moved_pages
        migration_energy_j = (
            migration_active_s * machine.disk.mode_power_watts["active"]
        )
        return FleetResult(
            label=self.label,
            duration_s=observed,
            num_disks=array.num_disks,
            memory_energy_j=memory_energy.total_j,
            disk_energy_j=disk_energy,
            per_disk=per_disk,
            total_accesses=metrics.total_accesses,
            disk_page_accesses=metrics.total_disk_pages,
            mean_latency_s=metrics.mean_latency_s,
            long_latency=metrics.total_long_latency,
            spin_down_cycles=sum(e.spin_down_cycles for e in per_disk),
            standby_fractions=standby_fractions,
            pages_migrated=pages_migrated,
            migration_active_s=migration_active_s,
            migration_energy_j=migration_energy_j,
            migrations=tuple(migrations),
            timeout_updates=timeout_updates,
        )

    def _on_boundary(
        self, now: float, migrations: List[MigrationRecord]
    ) -> int:
        """Process one period boundary; returns timeout changes applied.

        Order matters: spin-down decisions that expired before the
        boundary land first (``advance``), then migration moves the hot
        set (waking destinations *before* their new traffic arrives),
        then each disk's policy refits its timeout on the period it just
        observed.
        """
        array = self.array
        array.advance(now)
        if self.migrating:
            layout = self.layout
            moves = layout.plan_rebalance()
            if moves:
                migrations.append(_charge_migration(array, now, moves))
            layout.apply_moves(moves)
        updates = 0
        for index, policy in enumerate(self.policies):
            update = policy.on_period(now)
            if update is not NO_CHANGE:
                array.set_timeout(now, index, update)
                updates += 1
        return updates
