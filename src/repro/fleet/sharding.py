"""Sharded fleet decomposition: N disks, M tenants, campaign fan-out.

A fleet hosts many tenants (independent workloads, each a
:class:`~repro.campaign.tasks.WorkloadSpec`) on many disks.  Tenants are
assigned to shards by a *content hash* of their workload spec -- stable
across runs and machines, independent of list order -- and each shard is
an independent slice of the machine: its own disk-cache memory and its
own spindle(s), serving the time-ordered interleave of its tenants'
traces (every tenant's pages offset into a private range, so tenants
never share pages).

Shards never interact, which buys two things:

* **scale-out** -- one :class:`FleetShardTask` per shard fans out
  through the existing campaign executor/cache and replays on the
  vectorized/miss-run kernels, and
* **verifiability** -- :func:`run_fleet_monolithic` replays the very
  same shard traces in one process on the forced-scalar loop, and
  ``CHECKS["fleet"]`` asserts the merged :class:`FleetReport` from the
  fan-out (kernels + payload round trip) is bit-identical to it.

Single-disk shards (``disks_per_shard=1``, the default) run through
:func:`repro.sim.runner.run_method`; multi-disk shards run the
:class:`~repro.fleet.engine.FleetEngine` with a chosen layout, which is
how migration statistics enter campaign telemetry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.hashing import digest, task_key
from repro.campaign.plan import CampaignPlan
from repro.campaign.tasks import SimSummary, WorkloadSpec
from repro.config.machine import MachineConfig
from repro.errors import CampaignError, ConfigError, SimulationError
from repro.fleet.engine import FleetResult
from repro.policies.registry import MethodSpec
from repro.traces.trace import Trace, offset_ids
from repro.units import GB

#: File-id offset between tenants, so merged traces keep distinct files.
TENANT_FILE_SPAN = 1 << 32

#: Layout names a multi-disk shard accepts ("sim" = single-disk kernels).
SHARD_LAYOUTS = ("sim", "partitioned", "striped", "migrating")


def shard_of(workload: WorkloadSpec, num_shards: int) -> int:
    """The shard a tenant lands on: a content hash of its spec.

    Uses the campaign hashing canonicalisation, so the assignment is
    stable across processes, Python versions and tenant list order.
    """
    if num_shards < 1:
        raise ConfigError("a fleet needs at least one shard")
    key = digest({"fleet-tenant": dataclasses.asdict(workload)})
    return int(key[:16], 16) % num_shards


def tenant_page_span(tenants: Sequence[WorkloadSpec]) -> int:
    """Pages reserved per tenant: the largest tenant file set, in pages.

    The SPECWeb file-set generator overshoots its byte target (files
    round up), so the span replays each tenant's fileset draw -- the
    same ``default_rng(seed)`` stream ``generate_trace`` consumes first
    -- and takes the worst case.  O(files) per tenant, no trace
    expansion.
    """
    if not tenants:
        raise ConfigError("a fleet needs at least one tenant")
    from repro.traces.fileset import specweb_fileset

    span = 0
    for tenant in tenants:
        fileset = specweb_fileset(
            tenant.dataset_gb * GB,
            page_size=tenant.page_bytes,
            rng=np.random.default_rng(tenant.seed),
            file_scale=tenant.file_scale,
        )
        span = max(span, fileset.total_pages)
    return max(span, 1)


@dataclass(frozen=True)
class FleetSpec:
    """An N-shard, M-tenant fleet: everything that determines its runs."""

    machine: MachineConfig
    method: MethodSpec
    tenants: Tuple[WorkloadSpec, ...]
    num_shards: int
    duration_s: float
    #: Disks per shard; 1 replays on the single-disk kernels.
    disks_per_shard: int = 1
    #: Data layout inside a shard; "sim" is the single-disk fast path.
    layout: str = "sim"
    label: str = "fleet"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError("a fleet needs at least one shard")
        if not self.tenants:
            raise ConfigError("a fleet needs at least one tenant")
        if self.duration_s <= 0:
            raise ConfigError("the fleet window must be positive")
        if self.layout not in SHARD_LAYOUTS:
            raise ConfigError(
                f"unknown shard layout {self.layout!r}; "
                f"expected one of {', '.join(SHARD_LAYOUTS)}"
            )
        if self.disks_per_shard < 1:
            raise ConfigError("each shard needs at least one disk")
        if self.layout == "sim" and self.disks_per_shard != 1:
            raise ConfigError(
                "multi-disk shards need an explicit layout "
                "(partitioned, striped or migrating)"
            )
        for tenant in self.tenants:
            if tenant.write_fraction != 0.0:
                raise ConfigError(
                    "fleet shards do not model write-back yet; "
                    "tenants must be read-only"
                )
            if tenant.page_bytes != self.machine.page_bytes:
                raise ConfigError(
                    "tenant page size must match the machine's"
                )

    @property
    def num_disks(self) -> int:
        return self.num_shards * self.disks_per_shard

    @cached_property
    def page_span(self) -> int:
        return tenant_page_span(self.tenants)

    def shard_tenants(self) -> List[List[int]]:
        """Global tenant indices per shard, tenant order preserved."""
        shards: List[List[int]] = [[] for _ in range(self.num_shards)]
        for index, tenant in enumerate(self.tenants):
            shards[shard_of(tenant, self.num_shards)].append(index)
        return shards

    def tasks(self) -> List["FleetShardTask"]:
        """One campaign task per populated shard, shard order."""
        tasks = []
        for shard_index, indices in enumerate(self.shard_tenants()):
            if not indices:
                continue
            tasks.append(
                FleetShardTask(
                    method=self.method,
                    machine=self.machine,
                    tenants=tuple(self.tenants[i] for i in indices),
                    tenant_indices=tuple(indices),
                    page_span=self.page_span,
                    shard_index=shard_index,
                    num_shards=self.num_shards,
                    duration_s=self.duration_s,
                    disks_per_shard=self.disks_per_shard,
                    layout=self.layout,
                )
            )
        return tasks


def merge_tenant_traces(
    tenants: Sequence[WorkloadSpec],
    tenant_indices: Sequence[int],
    page_span: int,
    page_size: int,
) -> Trace:
    """Build and interleave one shard's tenant traces, time-ordered.

    Pages are offset by ``global_index * page_span`` and files by
    ``global_index * TENANT_FILE_SPAN``; ties in time resolve toward the
    lower tenant index (stable argsort over tenant-ordered
    concatenation), so the merged stream is a pure function of the specs
    -- identical in the fan-out worker and the monolithic reference.
    """
    if len(tenants) != len(tenant_indices):
        raise SimulationError("tenant specs and indices must align")
    times_parts: List[np.ndarray] = []
    pages_parts: List[np.ndarray] = []
    files_parts: List[np.ndarray] = []
    has_files = True
    for tenant, global_index in zip(tenants, tenant_indices):
        trace = tenant.build()
        if trace.pages.size and int(trace.pages.max()) >= page_span:
            raise SimulationError(
                f"tenant {global_index} overflows its page span "
                f"({int(trace.pages.max())} >= {page_span})"
            )
        times_parts.append(trace.times)
        pages_parts.append(
            offset_ids(
                trace.pages, global_index * page_span, SimulationError,
                f"tenant {global_index}'s pages",
            )
        )
        if trace.files is None:
            has_files = False
        else:
            files_parts.append(
                offset_ids(
                    trace.files, global_index * TENANT_FILE_SPAN,
                    SimulationError, f"tenant {global_index}'s file ids",
                )
            )
    times = np.concatenate(times_parts)
    pages = np.concatenate(pages_parts)
    order = np.argsort(times, kind="stable")
    return Trace(
        times=times[order],
        pages=pages[order],
        page_size=page_size,
        files=(
            np.concatenate(files_parts)[order]
            if has_files and files_parts
            else None
        ),
        meta={
            "source": "fleet-shard",
            "tenants": len(tenants),
        },
    )


def _shard_pages_per_disk(page_span: int, num_tenants: int, disks: int) -> int:
    """Partition granularity inside a multi-disk shard.

    The shard's page space spans all tenant offsets (the trace is sparse
    in it), so the base partition splits ``page_span * num_tenants``
    evenly across the shard's disks.
    """
    total = page_span * max(num_tenants, 1)
    return max(int(np.ceil(total / disks)), 1)


@dataclass(frozen=True)
class FleetShardTask:
    """One shard of a fleet: a content-hashed campaign task."""

    method: MethodSpec
    machine: MachineConfig
    #: This shard's tenants, in global tenant order.
    tenants: Tuple[WorkloadSpec, ...]
    #: The tenants' global indices (page/file offsets depend on them).
    tenant_indices: Tuple[int, ...]
    page_span: int
    shard_index: int
    num_shards: int
    duration_s: float
    disks_per_shard: int = 1
    layout: str = "sim"

    kind = "fleet-shard"

    def payload(self) -> Dict[str, Any]:
        payload = {
            "kind": self.kind,
            "method": dataclasses.asdict(self.method),
            "machine": dataclasses.asdict(self.machine),
            "tenants": [dataclasses.asdict(t) for t in self.tenants],
            "tenant_indices": list(self.tenant_indices),
            "page_span": self.page_span,
            "shard_index": self.shard_index,
            "num_shards": self.num_shards,
            "duration_s": self.duration_s,
        }
        # Only present off the default, so single-disk keys stay stable
        # if more shard shapes appear later (the SimTask regret pattern).
        if self.layout != "sim" or self.disks_per_shard != 1:
            payload["disks_per_shard"] = self.disks_per_shard
            payload["layout"] = self.layout
        return payload

    @cached_property
    def key(self) -> str:
        return task_key(self.payload())

    def describe(self) -> str:
        return (
            f"fleet-shard:{self.method.label} "
            f"shard {self.shard_index}/{self.num_shards} "
            f"({len(self.tenants)} tenant(s), {self.layout})"
        )

    def build_trace(self) -> Trace:
        return merge_tenant_traces(
            self.tenants,
            self.tenant_indices,
            self.page_span,
            self.machine.page_bytes,
        ).with_meta(shard=self.shard_index)

    def execute(self) -> Dict[str, Any]:
        return self.run(profile="auto")

    def run(self, profile: Any = "auto") -> Dict[str, Any]:
        """Replay this shard; ``profile=None`` forces the scalar loop.

        The monolithic reference calls ``run(profile=None)`` in-process;
        the campaign workers call :meth:`execute` (the kernels path).
        Both return the same payload shape, and ``CHECKS["fleet"]``
        holds them bit-equal.
        """
        trace = self.build_trace()
        base = {
            "kind": self.kind,
            "shard": self.shard_index,
            "tenants": len(self.tenants),
        }
        if self.layout == "sim":
            from repro.sim.runner import run_method

            result = run_method(
                self.method,
                trace,
                self.machine,
                duration_s=self.duration_s,
                profile=profile,
            )
            base["summary"] = SimSummary.from_result(result).to_payload()
            return base

        from repro.fleet.engine import FleetEngine
        from repro.fleet.layout import (
            MigratingLayout,
            PartitionedLayout,
            StripedLayout,
        )

        disks = self.disks_per_shard
        # The shard's (sparse) page space ends at the highest tenant
        # offset plus one span.
        pages_per_disk = _shard_pages_per_disk(
            self.page_span, max(self.tenant_indices) + 1, disks
        )
        if self.layout == "partitioned":
            layout = PartitionedLayout(disks, pages_per_disk)
        elif self.layout == "striped":
            layout = StripedLayout(disks)
        else:
            layout = MigratingLayout(disks, pages_per_disk)
        memory = self.method.build_memory_system(self.machine)
        engine = FleetEngine(
            self.machine,
            memory,
            layout,
            policy_factory=lambda: self.method.build_disk_policy(
                self.machine
            ),
            label=f"{self.method.label}-shard{self.shard_index}",
        )
        result = engine.run(trace, duration_s=self.duration_s)
        base["fleet"] = result.to_payload()
        return base


# --- the merged report -------------------------------------------------------


@dataclass(frozen=True)
class FleetReport:
    """Per-shard results merged into fleet-level figures.

    Built identically (same accumulation order, same floats) whether the
    shard payloads came from the campaign fan-out or the monolithic
    reference -- the merge is a pure function of the payload list.
    """

    label: str
    num_shards: int
    num_tenants: int
    duration_s: float
    #: Tenants per shard, index-aligned (zeros mark unpopulated shards).
    shard_tenants: Tuple[int, ...]
    memory_energy_j: float
    disk_energy_j: float
    total_accesses: int
    disk_page_accesses: int
    #: Miss-weighted mean latency across shards.
    mean_latency_s: float
    long_latency: int
    spin_down_cycles: int
    #: One entry per *disk*, fleet-wide; unpopulated shards count their
    #: drives as fully asleep (an unowned spindle never spins up).
    standby_fractions: Tuple[float, ...]
    #: Replay mode per shard ("idle" for unpopulated, "multidisk" for
    #: in-shard fleet-engine runs).
    replay_modes: Tuple[str, ...]
    pages_migrated: int = 0
    migration_energy_j: float = 0.0

    @property
    def num_disks(self) -> int:
        return len(self.standby_fractions)

    @property
    def total_energy_j(self) -> float:
        return self.memory_energy_j + self.disk_energy_j

    @property
    def sleeping_disks(self) -> int:
        """Disks that spent most of the window spun down."""
        return sum(1 for f in self.standby_fractions if f > 0.5)

    @classmethod
    def merge(
        cls,
        label: str,
        shard_payloads: Sequence[Optional[Dict[str, Any]]],
        shard_tenant_counts: Sequence[int],
        duration_s: float,
        disks_per_shard: int = 1,
    ) -> "FleetReport":
        """Fold per-shard payloads (``None`` = unpopulated) into one report."""
        if len(shard_payloads) != len(shard_tenant_counts):
            raise CampaignError("shard payloads and tenant counts must align")
        memory_j = 0.0
        disk_j = 0.0
        accesses = 0
        misses = 0
        long_latency = 0
        cycles = 0
        latency_mass = 0.0
        standby: List[float] = []
        modes: List[str] = []
        migrated = 0
        migration_j = 0.0
        for count, payload in zip(shard_tenant_counts, shard_payloads):
            if count == 0:
                standby.extend([1.0] * disks_per_shard)
                modes.append("idle")
                continue
            if payload is None:
                raise CampaignError("missing result for a populated shard")
            if "summary" in payload:
                s = SimSummary.from_payload(payload["summary"])
                memory_j += s.memory_energy_j
                disk_j += s.disk_energy_j
                accesses += s.total_accesses
                misses += s.disk_page_accesses
                long_latency += s.long_latency
                cycles += s.spin_down_cycles
                latency_mass += s.mean_latency_s * s.disk_page_accesses
                standby.append(
                    s.disk_standby_s / duration_s if duration_s > 0 else 0.0
                )
                modes.append(s.replay_mode)
            else:
                r = FleetResult.from_payload(payload["fleet"])
                memory_j += r.memory_energy_j
                disk_j += r.disk_energy_j
                accesses += r.total_accesses
                misses += r.disk_page_accesses
                long_latency += r.long_latency
                cycles += r.spin_down_cycles
                latency_mass += r.mean_latency_s * r.disk_page_accesses
                standby.extend(r.standby_fractions)
                modes.append("multidisk")
                migrated += r.pages_migrated
                migration_j += r.migration_energy_j
        return cls(
            label=label,
            num_shards=len(shard_tenant_counts),
            num_tenants=int(sum(shard_tenant_counts)),
            duration_s=duration_s,
            shard_tenants=tuple(int(c) for c in shard_tenant_counts),
            memory_energy_j=memory_j,
            disk_energy_j=disk_j,
            total_accesses=accesses,
            disk_page_accesses=misses,
            mean_latency_s=latency_mass / misses if misses else 0.0,
            long_latency=long_latency,
            spin_down_cycles=cycles,
            standby_fractions=tuple(standby),
            replay_modes=tuple(modes),
            pages_migrated=migrated,
            migration_energy_j=migration_j,
        )

    def to_payload(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["shard_tenants"] = list(self.shard_tenants)
        payload["standby_fractions"] = list(self.standby_fractions)
        payload["replay_modes"] = list(self.replay_modes)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FleetReport":
        data = dict(payload)
        data["shard_tenants"] = tuple(int(c) for c in data["shard_tenants"])
        data["standby_fractions"] = tuple(
            float(f) for f in data["standby_fractions"]
        )
        data["replay_modes"] = tuple(str(m) for m in data["replay_modes"])
        return cls(**data)

    def render(self) -> str:
        lines = [
            f"fleet {self.label}: {self.num_tenants} tenant(s) on "
            f"{self.num_disks} disk(s) in {self.num_shards} shard(s), "
            f"{self.duration_s:.0f} s window",
            f"  total energy    {self.total_energy_j:,.0f} J "
            f"(memory {self.memory_energy_j:,.0f} J, "
            f"disk {self.disk_energy_j:,.0f} J)",
            f"  sleeping disks  {self.sleeping_disks}/{self.num_disks}",
            f"  accesses        {self.total_accesses:,} "
            f"({self.disk_page_accesses:,} disk misses, "
            f"mean latency {self.mean_latency_s * 1e3:.2f} ms, "
            f"{self.long_latency} long)",
            f"  spin-downs      {self.spin_down_cycles}",
        ]
        if self.pages_migrated or self.migration_energy_j:
            lines.append(
                f"  migration       {self.pages_migrated:,} page(s), "
                f"{self.migration_energy_j:,.1f} J"
            )
        modes: Dict[str, int] = {}
        for mode in self.replay_modes:
            modes[mode] = modes.get(mode, 0) + 1
        detail = " ".join(f"{k}={v}" for k, v in sorted(modes.items()))
        lines.append(f"  shard replay    {detail}")
        return "\n".join(lines)


# --- plan + monolithic reference ---------------------------------------------


def fleet_plan(spec: FleetSpec) -> CampaignPlan:
    """One campaign task per populated shard, assembling a :class:`FleetReport`."""
    tasks = spec.tasks()
    shard_counts = [len(ix) for ix in spec.shard_tenants()]
    populated = [i for i, c in enumerate(shard_counts) if c]

    def assemble(payloads: Sequence[Optional[Dict[str, Any]]]) -> FleetReport:
        if len(payloads) != len(populated):
            raise CampaignError(
                f"fleet shape mismatch: {len(payloads)} payload(s) for "
                f"{len(populated)} shard task(s)"
            )
        slots: List[Optional[Dict[str, Any]]] = [None] * spec.num_shards
        for shard_index, payload in zip(populated, payloads):
            if payload is None:
                raise CampaignError(
                    f"missing result for fleet shard {shard_index}"
                )
            slots[shard_index] = payload
        return FleetReport.merge(
            label=spec.label,
            shard_payloads=slots,
            shard_tenant_counts=shard_counts,
            duration_s=spec.duration_s,
            disks_per_shard=spec.disks_per_shard,
        )

    return CampaignPlan(tasks=tasks, assemble=assemble)


def run_fleet_monolithic(spec: FleetSpec) -> FleetReport:
    """The one-process reference: every shard on the forced-scalar loop.

    Replays the identical shard traces as the campaign fan-out, but
    in-process, serially, with the vectorized kernels disabled -- a
    genuinely different execution path whose merged report
    ``CHECKS["fleet"]`` holds bit-identical to the fan-out's (replay
    modes excepted, which is the point).
    """
    shard_counts = [len(ix) for ix in spec.shard_tenants()]
    slots: List[Optional[Dict[str, Any]]] = [None] * spec.num_shards
    for task in spec.tasks():
        slots[task.shard_index] = task.run(profile=None)
    return FleetReport.merge(
        label=spec.label,
        shard_payloads=slots,
        shard_tenant_counts=shard_counts,
        duration_s=spec.duration_s,
        disks_per_shard=spec.disks_per_shard,
    )
