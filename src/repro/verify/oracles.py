"""Brute-force reference oracles for the fast paths.

Every clever data structure in this reproduction has a slow,
obviously-correct twin here:

* :func:`naive_stack_distances` / :func:`naive_lru_miss_times` -- an
  explicit LRU stack and a literal per-size LRU cache, against which the
  numpy :class:`~repro.cache.stack_distance.StackDistanceTracker` pass
  and the one-pass :class:`~repro.cache.predictor.ResizePredictor` are
  differentially tested (Mattson inclusion property).
* :func:`naive_idle_intervals` -- a plain-loop reimplementation of the
  aggregation-window filter in :mod:`repro.stats.intervals`.
* :func:`numeric_expected_off_time` / :func:`numeric_expected_spin_downs`
  / :func:`numeric_expected_power` -- the paper's eq. (2)-(4) evaluated by
  numerical integration of the Pareto density instead of the closed forms.
* :func:`grid_best_timeout` / :func:`oracle_select` -- an exhaustive
  ``(m, t_o)`` grid search the analytic eq. (5) optimum and the joint
  manager's candidate selection must match.
* :func:`integrate_disk_events` -- an event-by-event energy integrator
  that re-derives the drive's active/idle/standby/transition split from
  its state-transition log (:mod:`repro.disk.events`).

None of these are fast; all of them are meant to be *readable*.  The
differential runner (:mod:`repro.verify.differential`) replays fuzzed
inputs through fast path and oracle and reports the first divergence.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate as scipy_integrate

from repro.cache.stack_distance import COLD
from repro.config.disk_spec import DiskSpec
from repro.core.energy_model import CandidateEvaluation
from repro.disk.events import CHECKPOINT, SPIN_DOWN, SUBMIT, DiskEvent
from repro.errors import SimulationError
from repro.stats.pareto import ParetoDistribution

# --- stack distances and per-size LRU ---------------------------------------


def naive_stack_distances(pages: Sequence[int]) -> List[int]:
    """Stack distance of every access, via an explicit MRU-first list.

    The reference for :class:`~repro.cache.stack_distance.StackDistanceTracker`:
    the distance is the number of distinct pages accessed since the
    previous access to the same page, or :data:`COLD` on first touch.
    """
    stack: List[int] = []  # most recently used first
    out: List[int] = []
    for page in pages:
        if page in stack:
            depth = stack.index(page)
            out.append(depth)
            stack.remove(page)
        else:
            out.append(COLD)
        stack.insert(0, page)
    return out


def naive_depth_histogram(pages: Sequence[int]) -> Tuple[int, Dict[int, int]]:
    """``(cold_misses, {depth: hits})`` from the explicit LRU stack."""
    cold = 0
    hist: Dict[int, int] = {}
    for depth in naive_stack_distances(pages):
        if depth == COLD:
            cold += 1
        else:
            hist[depth] = hist.get(depth, 0) + 1
    return cold, hist


def naive_lru_misses(pages: Sequence[int], capacity_pages: int) -> int:
    """Miss count of a literal LRU cache of ``capacity_pages`` pages.

    By the inclusion property this must equal ``cold + #{depth >= m}``;
    the differential runner checks both derivations against each other.
    """
    if capacity_pages < 0:
        raise SimulationError("capacity must be non-negative")
    if capacity_pages == 0:
        return len(pages)
    cache: "OrderedDict[int, None]" = OrderedDict()
    misses = 0
    for page in pages:
        if page in cache:
            cache.move_to_end(page)
        else:
            misses += 1
            if len(cache) >= capacity_pages:
                cache.popitem(last=False)
            cache[page] = None
    return misses


def naive_lru_miss_times(
    times: Sequence[float], pages: Sequence[int], capacity_pages: int
) -> List[float]:
    """Timestamps at which a literal ``m``-page LRU cache misses.

    The reference for :meth:`~repro.cache.predictor.ResizePredictor.predict`:
    the predicted disk-access stream at candidate size ``m``.
    """
    if len(times) != len(pages):
        raise SimulationError("times and pages must align")
    if capacity_pages < 0:
        raise SimulationError("capacity must be non-negative")
    cache: "OrderedDict[int, None]" = OrderedDict()
    out: List[float] = []
    for now, page in zip(times, pages):
        if capacity_pages > 0 and page in cache:
            cache.move_to_end(page)
            continue
        out.append(float(now))
        if capacity_pages == 0:
            continue
        if len(cache) >= capacity_pages:
            cache.popitem(last=False)
        cache[page] = None
    return out


# --- idle intervals ----------------------------------------------------------


def naive_idle_intervals(
    access_times: Sequence[float],
    window_s: float,
    period_start: Optional[float] = None,
    period_end: Optional[float] = None,
) -> List[float]:
    """Aggregation-window-filtered idle intervals, one gap at a time.

    The reference for :func:`repro.stats.intervals.extract_idle_intervals`:
    walk consecutive accesses, include the leading/trailing gaps to the
    period boundaries when given, keep gaps ``>= window_s`` (and ``> 0``).
    """
    if window_s < 0:
        raise SimulationError("aggregation window must be non-negative")
    times = [float(t) for t in access_times]
    for earlier, later in zip(times, times[1:]):
        if later < earlier:
            raise SimulationError("disk access times must be non-decreasing")
    gaps: List[float] = []
    if times:
        if period_start is not None:
            gaps.append(times[0] - period_start)
        for earlier, later in zip(times, times[1:]):
            gaps.append(later - earlier)
        if period_end is not None:
            gaps.append(period_end - times[-1])
    elif period_start is not None and period_end is not None:
        gaps.append(period_end - period_start)
    return [g for g in gaps if g >= window_s and g > 0.0]


# --- eq. (2)-(4) by numerical integration ------------------------------------

#: Below this shape the Pareto integrals become numerically fragile (the
#: mean barely exists); the numeric oracles refuse rather than mislead.
NUMERIC_ALPHA_MIN = 1.05


def _check_numeric_dist(dist: ParetoDistribution) -> None:
    if dist.alpha < NUMERIC_ALPHA_MIN:
        raise SimulationError(
            f"numeric Pareto oracle needs alpha >= {NUMERIC_ALPHA_MIN}, "
            f"got {dist.alpha}"
        )


def numeric_expected_off_time(
    dist: ParetoDistribution, num_intervals: float, timeout_s: float
) -> float:
    """Paper eq. (2) as ``n_i * integral (l - t_o) f(l) dl``, numerically."""
    _check_numeric_dist(dist)
    t_o = max(timeout_s, dist.beta)
    # Pure relative tolerance: tail integrals can be ~1e-9 and the default
    # absolute tolerance would swamp them.  Near the fragile-alpha floor
    # the tail decays like l^{-alpha} and the default 50-subdivision cap
    # stalls around 1e-4 relative error (e.g. alpha=1.1, t_o ~ 360);
    # 500 subdivisions converge below 1e-10 across the admissible range.
    value, _ = scipy_integrate.quad(
        lambda length: (length - t_o) * dist.pdf(length),
        t_o,
        math.inf,
        epsabs=0.0,
        epsrel=1e-10,
        limit=500,
    )
    return num_intervals * value


def numeric_expected_spin_downs(
    dist: ParetoDistribution, num_intervals: float, timeout_s: float
) -> float:
    """Paper eq. (3) as ``n_i * integral f(l) dl`` past the timeout."""
    _check_numeric_dist(dist)
    t_o = max(timeout_s, dist.beta)
    value, _ = scipy_integrate.quad(
        lambda length: dist.pdf(length),
        t_o,
        math.inf,
        epsabs=0.0,
        epsrel=1e-10,
        limit=500,
    )
    return num_intervals * value


def numeric_expected_power(
    dist: ParetoDistribution,
    num_intervals: float,
    timeout_s: float,
    period_s: float,
    static_power_w: float,
    break_even_s: float,
) -> float:
    """Paper eq. (4) built from the numeric eq. (2)/(3) integrals.

    Applies the same ``t_s <= T`` cap as the fast closed form in
    :func:`repro.stats.timeout_math.expected_power`.
    """
    if period_s <= 0:
        raise SimulationError("period must be positive")
    t_s = min(numeric_expected_off_time(dist, num_intervals, timeout_s), period_s)
    h = numeric_expected_spin_downs(dist, num_intervals, timeout_s)
    return (
        static_power_w * (period_s - t_s) / period_s
        + static_power_w * break_even_s * h / period_s
    )


def unclamped_expected_power(
    dist: ParetoDistribution,
    num_intervals: float,
    timeout_s: float,
    period_s: float,
    static_power_w: float,
    break_even_s: float,
) -> float:
    """Closed-form eq. (4) without the ``t_s <= T`` cap.

    The eq. (5) optimum ``t_o = alpha * t_be`` is the exact minimiser of
    *this* function; the grid search below checks that calculus.
    """
    t_o = max(timeout_s, dist.beta)
    if dist.alpha <= 1.0:
        return -math.inf
    t_s = (
        num_intervals
        * (dist.beta / t_o) ** (dist.alpha - 1.0)
        * dist.beta
        / (dist.alpha - 1.0)
    )
    h = num_intervals * (dist.beta / t_o) ** dist.alpha
    return (
        static_power_w * (period_s - t_s) / period_s
        + static_power_w * break_even_s * h / period_s
    )


def grid_best_timeout(
    dist: ParetoDistribution,
    num_intervals: float,
    period_s: float,
    static_power_w: float,
    break_even_s: float,
    grid_points: int = 400,
    max_timeout_factor: float = 200.0,
) -> Tuple[float, float]:
    """``(timeout, power)`` minimising un-capped eq. (4) over a dense grid.

    The grid is log-spaced over ``[beta, max_timeout_factor * t_be]``;
    eq. (5)'s ``alpha * t_be`` must achieve a power no worse than the grid
    minimum (up to grid resolution).
    """
    if grid_points < 2:
        raise SimulationError("need at least two grid points")
    low = dist.beta
    high = max(max_timeout_factor * break_even_s, low * 2.0)
    grid = np.geomspace(low, high, grid_points)
    powers = [
        unclamped_expected_power(
            dist, num_intervals, t, period_s, static_power_w, break_even_s
        )
        for t in grid
    ]
    best = int(np.argmin(powers))
    return float(grid[best]), float(powers[best])


def delayed_ratio(
    dist: ParetoDistribution,
    num_intervals: float,
    num_disk_accesses: float,
    num_cache_accesses: float,
    period_s: float,
    timeout_s: float,
    transition_time_s: float,
    long_latency_threshold_s: float = 0.5,
) -> float:
    """Left-hand side of the paper's performance constraint, eq. (6).

    The expected fraction of disk-cache accesses delayed beyond the
    threshold by wake-ups: ``h * (t_tr - 0.5) * n_d / (T * N)``.
    """
    if num_cache_accesses <= 0 or period_s <= 0:
        return 0.0
    delay_window = max(transition_time_s - long_latency_threshold_s, 0.0)
    h = num_intervals * (dist.beta / max(timeout_s, dist.beta)) ** dist.alpha
    return h * delay_window * num_disk_accesses / (period_s * num_cache_accesses)


# --- candidate selection -------------------------------------------------------


def oracle_select(evaluations: Sequence[CandidateEvaluation]) -> CandidateEvaluation:
    """Exhaustive-scan reimplementation of the joint manager's selection.

    Semantics restated from scratch (paper Section IV-B plus the
    constrained variant): among feasible candidates take the lowest total
    power, breaking ties toward the smaller memory; when none is feasible,
    restrict to candidates within 5% (or 1e-4) of the lowest achievable
    utilisation and minimise power there.
    """
    if not evaluations:
        raise SimulationError("no candidates to select from")
    feasible = [e for e in evaluations if e.feasible]
    if feasible:
        best = feasible[0]
        for candidate in feasible[1:]:
            if candidate.total_power_w < best.total_power_w or (
                candidate.total_power_w == best.total_power_w
                and candidate.capacity_bytes < best.capacity_bytes
            ):
                best = candidate
        return best
    lowest = min(e.predicted_utilization for e in evaluations)
    tolerance = max(lowest * 0.05, 1e-4)
    near = [e for e in evaluations if e.predicted_utilization <= lowest + tolerance]
    best = near[0]
    for candidate in near[1:]:
        if candidate.total_power_w < best.total_power_w or (
            candidate.total_power_w == best.total_power_w
            and candidate.capacity_bytes < best.capacity_bytes
        ):
            best = candidate
    return best


# --- event-level disk energy ----------------------------------------------------


@dataclass
class IntegratedDiskEnergy:
    """Time/energy split re-derived from a drive's event log."""

    active_s: float = 0.0
    idle_s: float = 0.0
    standby_s: float = 0.0
    transition_s: float = 0.0
    spin_down_cycles: int = 0
    requests: int = 0

    @property
    def accounted_s(self) -> float:
        return self.active_s + self.idle_s + self.standby_s + self.transition_s

    def total_joules(self, spec: DiskSpec) -> float:
        return (
            self.active_s * spec.mode_power_watts["active"]
            + self.idle_s * spec.mode_power_watts["idle"]
            + self.standby_s * spec.mode_power_watts["standby"]
            + self.spin_down_cycles * spec.transition_energy_joules
        )


def integrate_disk_events(
    events: Sequence[DiskEvent], spec: DiskSpec
) -> IntegratedDiskEnergy:
    """Re-derive the drive's time split from its state-transition log.

    Walks the log once, maintaining only ``busy_until`` (end of queued
    work), the spun-down flag and the last passive checkpoint; every
    second of the timeline is assigned to exactly one bucket.  The result
    must agree with the drive's own incremental :class:`DiskEnergy`
    counters to float precision -- any disagreement means one of the two
    accountings dropped or double-counted time.
    """
    out = IntegratedDiskEnergy()
    busy_until = 0.0
    mark = 0.0  # passive time before this instant is already integrated
    spun_down = False
    spin_down_end = 0.0

    for event in events:
        if event.kind == SUBMIT:
            out.requests += 1
            if event.woke:
                if not spun_down:
                    raise SimulationError(
                        "log says a request woke a drive that was spinning"
                    )
                wake_start = event.start_s - spec.spin_up_time_s
                standby_from = max(spin_down_end, mark)
                if wake_start > standby_from:
                    out.standby_s += wake_start - standby_from
                out.transition_s += spec.spin_up_time_s
                spun_down = False
            else:
                if spun_down:
                    raise SimulationError(
                        "log says a spun-down drive served without waking"
                    )
                idle_from = max(busy_until, mark)
                if event.arrival_s > idle_from:
                    out.idle_s += event.arrival_s - idle_from
            out.active_s += event.service_s
            busy_until = event.finish_s
        elif event.kind == SPIN_DOWN:
            if spun_down:
                raise SimulationError("log spins down a drive twice in a row")
            idle_from = max(busy_until, mark)
            if event.time_s > idle_from:
                out.idle_s += event.time_s - idle_from
            out.transition_s += spec.spin_down_time_s
            out.spin_down_cycles += 1
            spun_down = True
            spin_down_end = event.time_s + spec.spin_down_time_s
        elif event.kind == CHECKPOINT:
            if spun_down:
                standby_from = max(spin_down_end, mark)
                if event.time_s > standby_from:
                    out.standby_s += event.time_s - standby_from
            else:
                idle_from = max(busy_until, mark)
                if event.time_s > idle_from:
                    out.idle_s += event.time_s - idle_from
            mark = max(mark, event.time_s)
        # SET_TIMEOUT events carry no time; they are context for humans.
    return out
