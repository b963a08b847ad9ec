"""Per-run regret vs the offline optimum (ROADMAP item 4).

Given one finished :class:`~repro.sim.results.SimResult` plus the trace
and machine that produced it, this module reconstructs the run's
capacity schedule from its per-period series, replays the trace through
the offline oracles of :mod:`repro.verify.optimal`, and reports how far
the run landed from what clairvoyance allows:

* **excess misses** -- online misses minus Belady/OPT misses under the
  *same* per-period capacity schedule (so only the replacement decisions
  are judged, not the sizing policy);
* **energy ratio** -- online total energy over a provable lower bound.

The lower bound is sound against this repo's energy accounting (see
``docs/VERIFICATION.md`` for the derivation and its limits):

* memory: every bank pays at least the cheapest mode's power for the
  whole run, plus the per-access dynamic energy, which no management
  policy avoids;
* disk: ``standby`` power for the whole run, the active-over-idle
  premium for the time actually spent serving, and -- per gap between
  consecutive disk accesses -- ``static * min(max(gap - t_tr, 0),
  t_eff)`` where ``t_eff = (E_tr - standby * t_tr) / static``.  Each gap
  either keeps the disk spinning (paying static power) or contains a
  spin-down round trip (paying the lump transition energy); the
  ``t_tr`` deductions make the claim hold even though transition time
  itself carries no per-second power.

Runs must be recorded from ``t=0`` (``warmup_s=0``): a warmup discards
the early periods, and the capacity schedule can no longer be aligned
with the trace.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.profile import TraceProfile, get_profile
from repro.config.machine import MachineConfig
from repro.errors import SimulationError
from repro.sim.kernels import _epoch_misses
from repro.sim.prefill import warm_start_pages
from repro.sim.results import RegretSummary, SimResult
from repro.stats.intervals import extract_idle_intervals
from repro.traces.trace import Trace
from repro.verify.optimal import (
    Epoch,
    compute_next_use,
    offline_disk_energy,
    offline_spin_decisions,
    opt_replay,
)

#: Slack for matching period boundaries against each other, seconds.
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class RegretReport:
    """Everything the regret analysis learned about one run."""

    label: str
    duration_s: float
    #: Misses the run actually booked (``SimResult.disk_page_accesses``).
    online_misses: int
    #: Misses re-derived from the trace profile and the recorded capacity
    #: schedule; equals ``online_misses`` for profiled-replay-capable
    #: runs and is the cross-check the regression tests pin down.
    recomputed_misses: int
    #: Belady/OPT misses under the same capacity schedule.
    opt_misses: int
    #: ``online_misses - opt_misses`` (>= 0).
    excess_misses: int
    online_energy_j: float
    energy_lower_bound_j: float
    memory_lower_bound_j: float
    disk_lower_bound_j: float
    #: ``online / lower bound`` (>= 1.0; 0 when the bound degenerates).
    energy_ratio: float
    #: Static+transition joules of the clairvoyant per-interval schedule
    #: on the run's recorded idle intervals (paper Section V framing).
    offline_disk_schedule_j: float
    #: Idle intervals the clairvoyant schedule spins down for.
    spin_down_worthy_intervals: int
    #: The reconstructed schedule, pages per period.
    capacities_pages: Tuple[int, ...]

    def summary(self) -> RegretSummary:
        """The compact form carried on :class:`SimResult`."""
        return RegretSummary(
            opt_misses=self.opt_misses,
            excess_misses=self.excess_misses,
            energy_lower_bound_j=self.energy_lower_bound_j,
            energy_ratio=self.energy_ratio,
        )

    def render(self) -> str:
        """A readable block for ``repro regret``."""
        lines = [
            f"regret report: {self.label} over {self.duration_s:.1f}s",
            f"  misses      online {self.online_misses} vs OPT "
            f"{self.opt_misses} (excess {self.excess_misses})",
            f"  energy      online {self.online_energy_j:.1f} J vs lower "
            f"bound {self.energy_lower_bound_j:.1f} J "
            f"(ratio {self.energy_ratio:.3f})",
            f"  bound split memory {self.memory_lower_bound_j:.1f} J, disk "
            f"{self.disk_lower_bound_j:.1f} J",
            f"  disk oracle {self.offline_disk_schedule_j:.1f} J static on "
            f"recorded intervals, {self.spin_down_worthy_intervals} "
            f"spin-down(s) worthwhile",
            f"  schedule    {len(self.capacities_pages)} period(s), "
            f"{min(self.capacities_pages)}-{max(self.capacities_pages)} pages",
        ]
        return "\n".join(lines)


def capacity_epochs(
    result: SimResult, trace: Trace, machine: MachineConfig
) -> Tuple[List[Epoch], int]:
    """The run's capacity schedule as trace-index epochs.

    Returns ``(epochs, n)`` where ``n`` is the number of accesses inside
    the run's duration.  The engine closes each period with the capacity
    in effect *during* it (``close_period`` runs before the manager's
    resize), so ``PeriodMetrics.memory_bytes`` is exactly the schedule
    the replay honoured; boundaries map to indices with the same
    ``side='left'`` rule the replay kernels use (an access exactly at a
    boundary belongs to the next period).
    """
    if not result.periods:
        raise SimulationError(
            "regret needs the per-period series; this result has none"
        )
    first = result.periods[0]
    if abs(first.start_s) > _BOUNDARY_TOL:
        raise SimulationError(
            "regret needs a run recorded from t=0; rerun with warmup_s=0 "
            f"(first period starts at {first.start_s}s)"
        )
    previous_end = 0.0
    for period in result.periods:
        if abs(period.start_s - previous_end) > _BOUNDARY_TOL:
            raise SimulationError(
                f"period series does not tile the run: period {period.index} "
                f"starts at {period.start_s}s, previous ended {previous_end}s"
            )
        previous_end = period.end_s
    if abs(previous_end - result.duration_s) > _BOUNDARY_TOL:
        raise SimulationError(
            f"period series ends at {previous_end}s, run lasted "
            f"{result.duration_s}s"
        )

    times = trace.times
    n = int(np.searchsorted(times, result.duration_s, side="left"))
    page_bytes = machine.page_bytes
    epochs: List[Epoch] = []
    lo = 0
    for k, period in enumerate(result.periods):
        if k + 1 == len(result.periods):
            hi = n
        else:
            hi = min(int(np.searchsorted(times, period.end_s, side="left")), n)
        epochs.append((lo, hi, int(period.memory_bytes) // page_bytes))
        lo = hi
    return epochs, n


def compute_regret(
    result: SimResult,
    trace: Trace,
    machine: MachineConfig,
    warm_start: bool = True,
    profile: Optional[TraceProfile] = None,
) -> RegretReport:
    """Regret of one finished run against the offline oracles.

    ``warm_start`` must match the flag the run itself used: the OPT
    replay starts from the same prefilled resident set, which is what
    makes ``OPT <= online`` hold access-for-access.
    """
    if trace.has_writes:
        raise SimulationError(
            "regret is defined for read-only traces (write-back flushes "
            "are not part of the paging model the oracle bounds)"
        )
    epochs, n = capacity_epochs(result, trace, machine)
    if profile is None:
        profile = get_profile(trace, warm_start=warm_start)
    if len(profile) < n:
        raise SimulationError("profile does not cover the trace")
    depths = profile.depths

    prefill = warm_start_pages(trace) if warm_start else []
    cap0 = epochs[0][2] if epochs else 0
    initial_pages = prefill[-cap0:] if cap0 > 0 else []

    # The online side, re-derived exactly as the epoch kernel replays it:
    # resident count clamps at each boundary, misses grow it to capacity.
    resident = min(len(initial_pages), cap0)
    miss_chunks: List[np.ndarray] = []
    for lo, hi, capacity in epochs:
        resident = min(resident, capacity)
        miss_idx, resident = _epoch_misses(depths, lo, hi, resident, capacity)
        miss_chunks.append(miss_idx)
    miss_indices = (
        np.concatenate(miss_chunks) if miss_chunks else np.empty(0, dtype=np.int64)
    )
    recomputed = int(miss_indices.size)

    pages = np.ascontiguousarray(trace.pages[:n], dtype=np.int64)
    opt = opt_replay(
        pages,
        epochs,
        initial_resident=initial_pages,
        next_use=compute_next_use(pages),
    )

    online_misses = int(result.disk_page_accesses)
    duration = float(result.duration_s)
    miss_times = np.asarray(trace.times)[miss_indices].astype(np.float64)

    memory_lb = _memory_lower_bound(result, machine, duration)
    disk_lb = _disk_lower_bound(result, machine, duration, miss_times)
    lower_bound = memory_lb + disk_lb
    online_energy = float(result.total_energy_j)
    ratio = online_energy / lower_bound if lower_bound > 0 else 0.0

    idle = extract_idle_intervals(
        miss_times.tolist(),
        machine.manager.aggregation_window_s,
        period_start=0.0,
        period_end=duration,
    )
    schedule_j = offline_disk_energy(idle.lengths, machine.disk)
    worthy = int(
        np.count_nonzero(
            offline_spin_decisions(idle.lengths, machine.disk.break_even_time_s)
        )
    )

    return RegretReport(
        label=result.label,
        duration_s=duration,
        online_misses=online_misses,
        recomputed_misses=recomputed,
        opt_misses=opt.misses,
        excess_misses=online_misses - opt.misses,
        online_energy_j=online_energy,
        energy_lower_bound_j=lower_bound,
        memory_lower_bound_j=memory_lb,
        disk_lower_bound_j=disk_lb,
        energy_ratio=ratio,
        offline_disk_schedule_j=schedule_j,
        spin_down_worthy_intervals=worthy,
        capacities_pages=tuple(capacity for _, _, capacity in epochs),
    )


def attach_regret(
    result: SimResult,
    trace: Trace,
    machine: MachineConfig,
    warm_start: bool = True,
    profile: Optional[TraceProfile] = None,
) -> SimResult:
    """``result`` with its :class:`RegretSummary` filled in."""
    report = compute_regret(
        result, trace, machine, warm_start=warm_start, profile=profile
    )
    return dataclasses.replace(result, regret=report.summary())


def _memory_lower_bound(
    result: SimResult, machine: MachineConfig, duration: float
) -> float:
    """Cheapest-mode static floor plus the unavoidable dynamic energy."""
    spec = machine.memory
    min_bank_w = min(spec.bank_power(mode) for mode in spec.mode_power_watts)
    return (
        min_bank_w * spec.num_banks * duration
        + spec.dynamic_energy_per_access * result.total_accesses
    )


def _disk_lower_bound(
    result: SimResult,
    machine: MachineConfig,
    duration: float,
    miss_times: np.ndarray,
) -> float:
    """The per-gap spin-or-pay bound described in the module docstring."""
    spec = machine.disk
    standby = spec.mode_power_watts["standby"]
    idle_p = spec.mode_power_watts["idle"]
    active_p = spec.mode_power_watts["active"]
    static = spec.static_power_watts
    t_tr = spec.transition_time_s
    t_eff = max(spec.transition_energy_joules - standby * t_tr, 0.0)
    t_eff = t_eff / static if static > 0 else 0.0

    edges = np.concatenate(([0.0], np.sort(miss_times), [duration]))
    gaps = np.clip(np.diff(edges), 0.0, None)
    claim = np.minimum(np.clip(gaps - t_tr, 0.0, None), t_eff)
    premium = (active_p - idle_p) * result.disk_energy.active_s
    return standby * duration + static * float(claim.sum()) + premium
