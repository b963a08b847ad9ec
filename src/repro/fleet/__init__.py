"""The storage fleet: array-level power management at scale.

The paper manages one disk and one memory (Section VI defers arrays);
ROADMAP item 2 names the "millions of users" scale-out.  This package
is that subsystem, in three layers:

* :mod:`repro.fleet.layout` / :mod:`repro.fleet.array` -- page-to-disk
  data layouts (partitioned, striped, and popularity-driven
  *migrating*) over an array of independently power-managed drives;
* :mod:`repro.fleet.engine` -- the array-level manager: per-disk
  per-period spin-down timeouts (reusing the adaptive/Pareto machinery
  in :mod:`repro.policies`) and hot-data migration with an explicit
  transfer cost charged to source and destination disks;
* :mod:`repro.fleet.sharding` -- the campaign axis: an N-disk,
  M-tenant fleet decomposes into content-hashed per-shard tasks that
  fan out through :func:`repro.campaign.executor.run_campaign` and
  replay on the vectorized kernels, merged back into a
  :class:`FleetReport`.

Verification: ``CHECKS["fleet"]`` (:mod:`repro.verify.fleet`) holds the
sharded fan-out bit-equal to the monolithic reference, the
migration-disabled engine bit-equal to the static scalar oracle
:class:`~repro.verify.fleet.MultiDiskEngine`, and the migration
accounting to exact conservation invariants.  See ``docs/FLEET.md``.
"""

from repro.fleet.array import DiskArray
from repro.fleet.engine import (
    FleetEngine,
    FleetResult,
    MigrationRecord,
    MultiDiskResult,
)
from repro.fleet.layout import (
    DataLayout,
    MigratingLayout,
    PartitionedLayout,
    StripedLayout,
)
from repro.fleet.sharding import (
    FleetReport,
    FleetShardTask,
    FleetSpec,
    fleet_plan,
    merge_tenant_traces,
    run_fleet_monolithic,
    shard_of,
    tenant_page_span,
)

__all__ = [
    "DataLayout",
    "DiskArray",
    "FleetEngine",
    "FleetReport",
    "FleetResult",
    "FleetShardTask",
    "FleetSpec",
    "MigratingLayout",
    "MigrationRecord",
    "MultiDiskResult",
    "PartitionedLayout",
    "StripedLayout",
    "fleet_plan",
    "merge_tenant_traces",
    "run_fleet_monolithic",
    "shard_of",
    "tenant_page_span",
]
