"""Differential check for the fleet subsystem (``CHECKS["fleet"]``).

Three legs, one fuzzed seed each:

1. **Fan-out vs monolithic** -- a small multi-tenant
   :class:`~repro.fleet.sharding.FleetSpec` is decomposed into shard
   tasks, each executed the way a campaign worker would (vectorized
   kernels, JSON payload round trip) and merged; the result must be
   bit-identical to :func:`~repro.fleet.sharding.run_fleet_monolithic`,
   which replays the very same shard traces serially on the
   forced-scalar loop.  Only ``replay_modes`` may differ (scalar vs
   kernels), which is the point of the comparison.
2. **Migration-disabled engine vs the legacy oracle** -- with a static
   layout and a policy that never fires ``on_period``, the
   :class:`~repro.fleet.engine.FleetEngine` must produce the exact
   operation sequence of :class:`MultiDiskEngine` below (kept
   deliberately independent of the fleet code): every result
   field compares bit-equal, and no migration/timeout telemetry may
   appear.
3. **Migration conservation** -- a migrating run on a hot set scattered
   across the array must satisfy exact *integer/float* invariants of
   the cost model: every migrated page is charged as one read plus one
   write (``sum(bytes_transferred) == (misses + 2*migrated) * page``),
   every participating disk's transfer shows up as a request
   (``sum(requests) == misses + submits``), per-record page counts are
   conserved between sources and destinations, and the reported
   migration energy is exactly ``active seconds x active watts``.  A
   mutation that drops either side of the transfer (see the
   monkeypatch test of ``_charge_migration``) trips these immediately.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from repro.campaign.tasks import WorkloadSpec
from repro.config.machine import MachineConfig
from repro.disk.service import ServiceModel
from repro.errors import SimulationError
from repro.fleet.array import DiskArray
from repro.fleet.engine import FleetEngine, MultiDiskResult, PolicyFactory
from repro.fleet.layout import (
    DataLayout,
    MigratingLayout,
    PartitionedLayout,
    StripedLayout,
)
from repro.fleet.sharding import FleetSpec, fleet_plan, run_fleet_monolithic
from repro.memory.system import MemorySystem
from repro.policies.base import NO_CHANGE
from repro.policies.registry import parse_method
from repro.sim.engine import SEQUENTIAL_MERGE_WINDOW_S
from repro.sim.metrics import MetricsCollector
from repro.traces.trace import Trace
from repro.verify.strategies import VerifyCase, random_small_machine

#: Methods the fan-out leg cycles through (memory policy x disk policy).
_FLEET_METHODS = ("2TNAP", "ADNAP", "PTNAP")

#: Shard shapes the fan-out leg cycles through.
_FLEET_SHAPES = (
    ("sim", 1),
    ("partitioned", 2),
    ("striped", 2),
    ("migrating", 2),
)


class MultiDiskEngine:
    """The static-parity oracle: a shared cache over an N-disk array.

    The plain scalar replay with no period-boundary processing, kept
    independent of :mod:`repro.fleet.engine` on purpose: with a static
    layout and no ``on_period`` policy the fleet engine must perform
    exactly this loop's operations, which leg 2 compares bit for bit.
    """

    def __init__(
        self,
        machine: MachineConfig,
        memory: MemorySystem,
        layout: DataLayout,
        policy_factory: PolicyFactory,
        label: str = "multidisk",
    ) -> None:
        self.machine = machine
        self.memory = memory
        self.label = label
        service = ServiceModel(machine.disk, machine.page_bytes)
        self.array = DiskArray(machine.disk, service, layout)
        self.policies = [policy_factory() for _ in range(layout.num_disks)]

    def run(
        self,
        trace: Trace,
        duration_s: Optional[float] = None,
        warmup_s: float = 0.0,
    ) -> MultiDiskResult:
        machine = self.machine
        period = machine.manager.period_s
        if duration_s is None:
            periods = max(int(np.ceil(trace.duration_s / period)), 1)
            duration_s = periods * period
        if warmup_s < 0 or warmup_s >= duration_s:
            raise SimulationError("warm-up must be within the duration")

        if trace.has_writes:
            raise SimulationError(
                "the multi-disk engine does not model write-back yet; "
                "strip writes or use the single-disk SimulationEngine"
            )
        metrics = MetricsCollector(
            period_s=period,
            long_latency_threshold_s=machine.manager.long_latency_threshold_s,
            aggregation_window_s=machine.manager.aggregation_window_s,
        )
        array = self.array
        memory = self.memory
        for index, policy in enumerate(self.policies):
            array.set_timeout(0.0, index, policy.initial_timeout())

        last_miss_page = [-2] * array.num_disks
        last_miss_time = [-np.inf] * array.num_disks
        mem_mark = memory.energy.snapshot() if warmup_s == 0 else None
        disk_marks = array.snapshots() if warmup_s == 0 else None
        measuring = warmup_s == 0

        for now, page in zip(trace.times.tolist(), trace.pages.tolist()):
            if now >= duration_s:
                break
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

            disk_index = array.layout.disk_of(page)
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
        return MultiDiskResult(
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
        )


def _check_fanout(case: VerifyCase) -> Optional[str]:
    """Leg 1: sharded campaign fan-out vs the monolithic reference."""
    from repro.verify.differential import deep_diff

    rng = np.random.default_rng(case.seed ^ 0xF1EE7)
    machine = random_small_machine(case.seed, rng=rng)
    period = machine.manager.period_s
    method = _FLEET_METHODS[int(rng.integers(0, len(_FLEET_METHODS)))]
    layout, disks = _FLEET_SHAPES[int(rng.integers(0, len(_FLEET_SHAPES)))]
    num_tenants = int(rng.integers(2, 5))
    num_shards = int(rng.integers(2, 4))
    duration = 2.0 * period
    tenants = tuple(
        WorkloadSpec.for_machine(
            machine,
            # Sub-GB filesets can degenerate to a handful of files, for
            # which no Zipf exponent reaches a low popularity ratio.
            dataset_gb=float(rng.choice([1.0, 2.0])),
            rate_mb=float(rng.uniform(1.0, 4.0)),
            popularity=float(rng.uniform(0.7, 0.9)),
            duration_s=duration,
            seed=int(rng.integers(0, 2**31)),
        )
        for _ in range(num_tenants)
    )
    spec = FleetSpec(
        machine=machine,
        method=parse_method(method),
        tenants=tenants,
        num_shards=num_shards,
        duration_s=duration,
        disks_per_shard=disks,
        layout=layout,
    )
    context = (
        f"(method {method}, layout {layout}, {num_tenants} tenant(s), "
        f"{num_shards} shard(s))"
    )

    monolithic = run_fleet_monolithic(spec)
    plan = fleet_plan(spec)
    # The worker path exactly: kernels replay, then the payload crosses a
    # process/cache boundary as JSON before the merge sees it.
    payloads = [json.loads(json.dumps(task.execute())) for task in plan.tasks]
    fanout = plan.assemble(payloads)

    expected = monolithic.to_payload()
    actual = fanout.to_payload()
    expected.pop("replay_modes")
    actual.pop("replay_modes")
    diff = deep_diff(actual, expected, "fleet_report")
    if diff is not None:
        return f"fan-out vs monolithic: {diff} {context}"
    from repro.cache.profile import kernels_enabled

    if layout == "sim" and kernels_enabled():
        # The comparison only means something if the fan-out actually
        # took the kernels path while the reference stayed scalar.
        for mode in fanout.replay_modes:
            if mode == "scalar":
                return (
                    f"fan-out shard fell back to the scalar loop "
                    f"(modes {list(fanout.replay_modes)}) {context}"
                )
    return None


def _case_trace(case: VerifyCase, machine, periods: float):
    """The fuzzed stream stretched across ``periods`` manager periods."""
    from repro.traces.trace import Trace

    span = max(float(case.times[-1]), 1e-3)
    times = case.times * (periods * machine.manager.period_s / span)
    return Trace(
        times=times,
        pages=case.pages,
        page_size=machine.page_bytes,
    )


def _check_static_parity(case: VerifyCase) -> Optional[str]:
    """Leg 2: migration-disabled FleetEngine vs MultiDiskEngine, bit-equal."""
    from repro.verify.differential import deep_diff

    if case.times.size == 0:
        return None
    rng = np.random.default_rng(case.seed ^ 0x0F1E37)
    machine = random_small_machine(case.seed, rng=rng)
    # 2T and AD leave ``on_period`` alone, so boundary processing must be
    # skipped and the replays identical operation for operation.
    method = parse_method("2TNAP" if rng.random() < 0.5 else "ADNAP")
    num_disks = int(rng.integers(2, 5))
    max_page = int(case.pages.max())
    if rng.random() < 0.5:
        pages_per_disk = max((max_page + num_disks) // num_disks, 1)
        layout = PartitionedLayout(num_disks, pages_per_disk)
    else:
        layout = StripedLayout(num_disks, extent_pages=int(rng.choice([1, 4, 16])))
    trace = _case_trace(case, machine, periods=2.5)
    context = f"(method {method.label}, layout {type(layout).__name__})"

    reference = MultiDiskEngine(
        machine,
        method.build_memory_system(machine),
        layout,
        policy_factory=lambda: method.build_disk_policy(machine),
        label="parity",
    ).run(trace)
    fleet = FleetEngine(
        machine,
        method.build_memory_system(machine),
        layout,
        policy_factory=lambda: method.build_disk_policy(machine),
        label="parity",
    ).run(trace)

    if fleet.pages_migrated or fleet.migrations or fleet.timeout_updates:
        return (
            f"static fleet run reported boundary activity "
            f"(migrated {fleet.pages_migrated}, "
            f"updates {fleet.timeout_updates}) {context}"
        )
    expected = reference.to_payload()
    actual = {
        key: value
        for key, value in fleet.to_payload().items()
        if key in expected
    }
    diff = deep_diff(actual, expected, "result")
    if diff is not None:
        return f"fleet vs multidisk: {diff} {context}"
    return None


def _check_migration_conservation(case: VerifyCase) -> Optional[str]:
    """Leg 3: exact conservation invariants of the migration cost model."""
    if case.times.size == 0:
        return None
    rng = np.random.default_rng(case.seed ^ 0x316A7E)
    machine = random_small_machine(case.seed, rng=rng)
    num_disks = 4
    # A deliberately tiny partition unit scatters the fuzzed pages across
    # all spindles, so popularity ranking has somewhere to move them.
    layout = MigratingLayout(num_disks, pages_per_disk=int(rng.choice([4, 8, 16])))
    method = parse_method("PTNAP")  # Pareto: on_period fires every boundary
    trace = _case_trace(case, machine, periods=3.25)

    result = FleetEngine(
        machine,
        method.build_memory_system(machine),
        layout,
        policy_factory=lambda: method.build_disk_policy(machine),
        label="conservation",
    ).run(trace)

    context = f"(pattern {case.pattern}, {case.pages.size} accesses)"
    moved = sum(record.moved_pages for record in result.migrations)
    if moved != result.pages_migrated:
        return (
            f"migration records carry {moved} page(s) but the result "
            f"reports {result.pages_migrated} {context}"
        )
    src_total = sum(
        n for record in result.migrations for _d, n in record.src_pages
    )
    dst_total = sum(
        n for record in result.migrations for _d, n in record.dst_pages
    )
    if src_total != result.pages_migrated or dst_total != result.pages_migrated:
        return (
            f"unbalanced transfer: {src_total} page(s) read, {dst_total} "
            f"written, {result.pages_migrated} migrated {context}"
        )
    submits = sum(
        len(record.src_pages) + len(record.dst_pages)
        for record in result.migrations
    )
    requests = sum(energy.requests for energy in result.per_disk)
    if requests != result.disk_page_accesses + submits:
        return (
            f"request conservation: {requests} drive request(s) != "
            f"{result.disk_page_accesses} miss(es) + {submits} migration "
            f"submit(s) {context}"
        )
    page = machine.page_bytes
    moved_bytes = sum(int(energy.bytes_transferred) for energy in result.per_disk)
    expected_bytes = (
        result.disk_page_accesses + 2 * result.pages_migrated
    ) * page
    if moved_bytes != expected_bytes:
        return (
            f"byte conservation: {moved_bytes} transferred != "
            f"({result.disk_page_accesses} + 2*{result.pages_migrated}) "
            f"* {page} {context}"
        )
    active_w = machine.disk.mode_power_watts["active"]
    if result.migration_energy_j != result.migration_active_s * active_w:
        return (
            f"migration energy {result.migration_energy_j!r} != "
            f"{result.migration_active_s!r} * {active_w!r} {context}"
        )
    active_s = sum(record.active_s for record in result.migrations)
    if abs(active_s - result.migration_active_s) > 1e-12 * max(active_s, 1.0):
        return (
            f"per-record active seconds {active_s!r} != result total "
            f"{result.migration_active_s!r} {context}"
        )
    if result.pages_migrated > 0 and result.migration_active_s <= 0.0:
        return (
            f"free migration: {result.pages_migrated} page(s) moved in "
            f"{result.migration_active_s!r} service seconds {context}"
        )
    for record in result.migrations:
        if record.moved_pages > 0 and record.active_s <= 0.0:
            return (
                f"free migration record at t={record.time_s:g}: "
                f"{record.moved_pages} page(s) in {record.active_s!r} s "
                f"{context}"
            )
    return None


def check_fleet(case: VerifyCase) -> Optional[str]:
    """Fan-out vs monolithic, fleet vs multidisk, migration conservation."""
    for leg in (_check_fanout, _check_static_parity, _check_migration_conservation):
        detail = leg(case)
        if detail is not None:
            return detail
    return None
