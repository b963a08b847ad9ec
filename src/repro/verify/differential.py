"""Differential runner: fast paths vs brute-force oracles over fuzzed seeds.

Eight checks, each pairing a production fast path with its oracle from
:mod:`repro.verify.oracles` (or, for ``optimal``/``fleet``, from
:mod:`repro.verify.optimal` / :mod:`repro.verify.fleet`):

========== ====================================================== =========
check      fast path                                              oracle
========== ====================================================== =========
stack      ``cache.stack_distance.StackDistanceTracker``          explicit LRU stack
intervals  ``stats.intervals.extract_idle_intervals``             plain-loop filter
predictor  ``cache.predictor.ResizePredictor`` fed by the tracker per-size literal LRU
joint      ``core.joint.JointPowerManager`` period decision       per-size LRU + numeric
                                                                  eq. (2)-(6) + (m, t_o)
                                                                  grid search
energy     ``sim.engine`` / ``disk.drive`` incremental accounting event-log integration
parity     every fast replay mode of ``sim.kernels``, one         the scalar engine loop
           scenario each -- ``vectorized``, ``missrun``           forced by the
           (batched ``SimDisk.submit_run``), ``writes`` (flush    ``$REPRO_KERNELS``
           sweeps inside hit runs), ``epoch`` (live joint         kill switch (for the
           manager), ``disable`` (2TDS bank map) -- plus          stream: the offline
           ``service.streaming.StreamingManager`` fed ragged      ``run_method`` replay
           batches with idle advances                             of the same sequence)
optimal    ``verify.optimal`` lazy-heap Belady + clairvoyant      linear-scan Belady,
           disk schedule                                          competitive closed
                                                                  form, one-sided
                                                                  OPT <= online bounds
fleet      ``fleet.sharding`` campaign fan-out (kernels + JSON    the monolithic
           round trip) and the ``fleet.engine`` array manager     forced-scalar merge,
           with migration accounting                              ``MultiDiskEngine``,
                                                                  and exact transfer
                                                                  conservation laws
========== ====================================================== =========

Each seed deterministically expands to a fuzzed workload
(:func:`repro.verify.strategies.random_case`).  On the first divergence
the runner delta-debugs the access stream down to a minimal reproducer
and stops; ``repro verify`` prints it ready to paste into a test.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.predictor import ResizePredictor
from repro.cache.profile import build_profile, kernels_off
from repro.cache.stack_distance import StackDistanceTracker
from repro.core.enumeration import candidate_sizes
from repro.core.joint import JointPowerManager
from repro.errors import SimulationError
from repro.memory.system import (
    DisableMemorySystem,
    NapMemorySystem,
    PowerDownMemorySystem,
)
from repro.policies.always_on import AlwaysOnPolicy
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.service.streaming import StreamingManager
from repro.sim import kernels
from repro.sim.engine import SimulationEngine
from repro.sim.prefill import warm_start_pages
from repro.sim.results import SimResult
from repro.sim.runner import run_method
from repro.stats.intervals import extract_idle_intervals
from repro.stats.timeout_math import expected_power, optimal_timeout
from repro.traces.trace import Trace
from repro.verify import oracles
from repro.verify.fleet import check_fleet
from repro.verify.optimal import check_optimal
from repro.verify.strategies import VerifyCase, random_case, random_small_machine

#: Candidate cache sizes (pages) the predictor check sweeps.
PREDICTOR_CAPACITIES = (0, 1, 2, 3, 5, 8, 13, 21, 34)

#: Bounds within which the numeric Pareto oracles are trustworthy.
NUMERIC_ALPHA_RANGE = (1.05, 50.0)


# --- report types -------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """A confirmed fast-path/oracle disagreement, minimized."""

    check: str
    seed: int
    pattern: str
    #: What differed, on the minimized input.
    detail: str
    #: The minimized access stream (times kept aligned with pages).
    times: Tuple[float, ...]
    pages: Tuple[int, ...]
    window_s: float
    period_s: float

    def reproducer(self) -> str:
        """A paste-ready snippet that re-triggers the divergence."""
        times = "[" + ", ".join(f"{t:.6f}" for t in self.times) + "]"
        pages = "[" + ", ".join(str(p) for p in self.pages) + "]"
        return (
            "from repro.verify.differential import CHECKS\n"
            "from repro.verify.strategies import VerifyCase\n"
            "import numpy as np\n"
            f"case = VerifyCase(seed={self.seed}, times=np.array({times}),\n"
            f"                  pages=np.array({pages}, dtype=np.int64),\n"
            f"                  window_s={self.window_s!r}, period_s={self.period_s!r},\n"
            f"                  pattern={self.pattern!r})\n"
            f"print(CHECKS[{self.check!r}](case))"
        )


@dataclass(frozen=True)
class CheckOutcome:
    """Result of running one check over a range of seeds."""

    name: str
    seeds_run: int
    divergence: Optional[Divergence] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None


@dataclass
class VerifyReport:
    """Everything ``repro verify`` learned in one invocation."""

    outcomes: List[CheckOutcome] = field(default_factory=list)
    first_seed: int = 0
    seeds: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def first_divergence(self) -> Optional[Divergence]:
        for outcome in self.outcomes:
            if outcome.divergence is not None:
                return outcome.divergence
        return None

    def render(self) -> str:
        lines = [
            f"differential verification: {self.seeds} seed(s) starting at "
            f"{self.first_seed}"
        ]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "DIVERGED"
            lines.append(
                f"  {outcome.name:<10} {outcome.seeds_run:>4} seed(s)  {status}"
            )
            if outcome.divergence is not None:
                d = outcome.divergence
                lines.append(
                    f"    seed {d.seed} (pattern {d.pattern}): {d.detail}"
                )
                lines.append(
                    f"    minimized to {len(d.pages)} access(es); reproducer:"
                )
                for row in d.reproducer().splitlines():
                    lines.append("      " + row)
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


# --- delta debugging ----------------------------------------------------------


def minimize_accesses(
    items: List[Tuple[float, int]],
    fails: Callable[[List[Tuple[float, int]]], bool],
) -> List[Tuple[float, int]]:
    """Classic ddmin over ``(time, page)`` pairs.

    Repeatedly tries dropping contiguous chunks (halves, then quarters,
    ...) while ``fails`` keeps returning True; subsequences preserve the
    time ordering, so every candidate is a valid access stream.
    """
    if not fails(items):
        raise SimulationError("minimizer needs a failing input to start from")
    granularity = 2
    while len(items) >= 2:
        chunk = max(len(items) // granularity, 1)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk :]
            if candidate != items and fails(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(items))
    return items


def _rebuild(case: VerifyCase, pairs: Sequence[Tuple[float, int]]) -> VerifyCase:
    return VerifyCase(
        seed=case.seed,
        times=np.asarray([t for t, _ in pairs], dtype=np.float64),
        pages=np.asarray([p for _, p in pairs], dtype=np.int64),
        window_s=case.window_s,
        period_s=case.period_s,
        pattern=case.pattern,
    )


# --- the checks ---------------------------------------------------------------


def _batch_bounds(case: VerifyCase) -> List[int]:
    """Random batch edges ``[0, ..., n]`` over the case's accesses.

    Drawn from the case seed; empty and single-access batches occur.
    """
    rng = np.random.default_rng(case.seed)
    n = int(case.pages.size)
    cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(0, 8))).tolist())
    return [0] + cuts + [n]


def check_stack_distance(case: VerifyCase) -> Optional[str]:
    """``access_array`` fed in random batches vs the explicit LRU stack."""
    pages = case.pages.tolist()
    slow = oracles.naive_stack_distances(pages)
    bounds = _batch_bounds(case)
    tracker = StackDistanceTracker()
    fast: List[int] = []
    for lo, hi in zip(bounds, bounds[1:]):
        fast.extend(tracker.access_array(case.pages[lo:hi]).tolist())
    if fast != slow:
        first = next(i for i, (a, b) in enumerate(zip(fast, slow)) if a != b)
        return (
            f"access_array {bounds}: stack distance of access {first} (page "
            f"{pages[first]}): fast {fast[first]} != oracle {slow[first]}"
        )
    return None


def check_intervals(case: VerifyCase) -> Optional[str]:
    """Vectorised idle-interval extraction vs the one-gap-at-a-time loop."""
    # The disk sees the access times directly in this check.
    times = case.times.tolist()
    fast = extract_idle_intervals(
        times, case.window_s, period_start=0.0, period_end=case.period_s
    )
    slow = oracles.naive_idle_intervals(
        times, case.window_s, period_start=0.0, period_end=case.period_s
    )
    if fast.count != len(slow) or not np.allclose(
        fast.lengths, np.asarray(slow), rtol=0.0, atol=1e-12
    ):
        return (
            f"idle intervals differ: fast n={fast.count} "
            f"{fast.lengths.tolist()} != oracle n={len(slow)} {slow}"
        )
    return None


def check_predictor(case: VerifyCase) -> Optional[str]:
    """One-pass per-size prediction vs literally simulating each size.

    Depths and samples are fed in the random batches of
    :func:`_batch_bounds`.
    """
    times = case.times.tolist()
    pages = case.pages.tolist()
    bounds = _batch_bounds(case)
    tracker = StackDistanceTracker()
    predictor = ResizePredictor()
    for lo, hi in zip(bounds, bounds[1:]):
        predictor.record_array(
            case.times[lo:hi], tracker.access_array(case.pages[lo:hi])
        )
    predictions = predictor.predict(
        PREDICTOR_CAPACITIES,
        window_s=case.window_s,
        period_start=0.0,
        period_end=case.period_s,
    )
    for prediction in predictions:
        detail = _prediction_vs_lru(
            prediction, times, pages, case.window_s, case.period_s
        )
        if detail is not None:
            return detail
    return None


def _prediction_vs_lru(
    prediction, times: list, pages: list, window_s: float, period_s: float
) -> Optional[str]:
    """One size's predicted disk accesses and idle intervals vs the
    literal LRU simulation of that size."""
    capacity = prediction.capacity_pages
    slow_times = oracles.naive_lru_miss_times(times, pages, capacity)
    if prediction.num_disk_accesses != len(slow_times):
        return (
            f"size {capacity}: fast predicts "
            f"{prediction.num_disk_accesses} disk accesses, the literal "
            f"LRU saw {len(slow_times)}"
        )
    slow_idle = oracles.naive_idle_intervals(
        slow_times, window_s, period_start=0.0, period_end=period_s
    )
    if prediction.idle.count != len(slow_idle) or not np.allclose(
        prediction.idle.lengths, np.asarray(slow_idle), rtol=0.0, atol=1e-9
    ):
        return (
            f"size {capacity}: fast idle intervals "
            f"{prediction.idle.lengths.tolist()} != oracle {slow_idle}"
        )
    return None


def check_joint(case: VerifyCase) -> Optional[str]:
    """The per-period ``(m, t_o)`` decision vs exhaustive search.

    Four oracles in one pass: (1) per-candidate disk-IO predictions vs
    the literal LRU, (2) candidate selection vs an exhaustive scan,
    (3) the closed-form eq. (4) power vs numerical integration, and
    (4) the eq. (5) timeout vs a dense timeout grid, plus the eq. (6)
    delayed-ratio constraint at the chosen timeout.  The manager records
    the accesses in the random batches of :func:`_batch_bounds`.
    """
    machine = random_small_machine(case.seed)
    manager = JointPowerManager(machine)
    times = case.times.tolist()
    pages = case.pages.tolist()
    bounds = _batch_bounds(case)
    for lo, hi in zip(bounds, bounds[1:]):
        manager.record_pages(case.times[lo:hi], case.pages[lo:hi])
    decision = manager.end_period(case.period_s)
    evaluations = decision.evaluations
    period_s = case.period_s
    disk = machine.disk

    # (1) predictions vs the literal per-size LRU simulation.
    for evaluation in evaluations:
        detail = _prediction_vs_lru(
            evaluation.prediction,
            times,
            pages,
            machine.manager.aggregation_window_s,
            period_s,
        )
        if detail is not None:
            return f"candidate {detail}"

    # (2) selection vs the exhaustive scan.
    chosen = oracles.oracle_select(evaluations)
    if chosen.capacity_bytes != decision.memory_bytes:
        return (
            f"selection: manager chose {decision.memory_bytes} B, exhaustive "
            f"scan chose {chosen.capacity_bytes} B"
        )
    if not _timeouts_equal(chosen.timeout_s, decision.timeout_s):
        return (
            f"selection: manager timeout {decision.timeout_s} != oracle "
            f"timeout {chosen.timeout_s}"
        )

    # (3)/(4) the timeout mathematics, candidate by candidate.
    low, high = NUMERIC_ALPHA_RANGE
    for evaluation in evaluations:
        fit = evaluation.fit
        if fit is None or not (low <= fit.alpha <= high):
            continue
        n_i = evaluation.prediction.idle.count
        if n_i == 0 or evaluation.prediction.num_disk_accesses == 0:
            continue
        timeout = evaluation.timeout_s
        if timeout is not None and timeout > 0:
            closed = expected_power(
                fit,
                num_intervals=n_i,
                timeout_s=timeout,
                period_s=period_s,
                static_power_w=disk.static_power_watts,
                break_even_s=disk.break_even_time_s,
            )
            numeric = oracles.numeric_expected_power(
                fit,
                num_intervals=n_i,
                timeout_s=timeout,
                period_s=period_s,
                static_power_w=disk.static_power_watts,
                break_even_s=disk.break_even_time_s,
            )
            if not math.isclose(closed, numeric, rel_tol=1e-5, abs_tol=1e-9):
                return (
                    f"candidate {evaluation.capacity_bytes} B: eq. (4) closed "
                    f"form {closed} != numeric integral {numeric}"
                )
        eq5 = optimal_timeout(fit, disk.break_even_time_s)
        at_eq5 = oracles.unclamped_expected_power(
            fit, n_i, eq5, period_s, disk.static_power_watts, disk.break_even_time_s
        )
        _, grid_power = oracles.grid_best_timeout(
            fit,
            n_i,
            period_s,
            disk.static_power_watts,
            disk.break_even_time_s,
        )
        # Sign-safe slack: the unclamped power goes negative when t_s > T.
        if at_eq5 > grid_power + max(abs(grid_power) * 1e-3, 1e-9):
            return (
                f"candidate {evaluation.capacity_bytes} B: eq. (5) timeout "
                f"{eq5:.3f}s has power {at_eq5:.6f} W, the grid found "
                f"{grid_power:.6f} W"
            )
        if timeout is not None and manager.enforce_constraints:
            ratio = oracles.delayed_ratio(
                fit,
                num_intervals=n_i,
                num_disk_accesses=evaluation.prediction.num_disk_accesses,
                num_cache_accesses=evaluation.prediction.num_cache_accesses,
                period_s=period_s,
                timeout_s=timeout,
                transition_time_s=disk.transition_time_s,
                long_latency_threshold_s=machine.manager.long_latency_threshold_s,
            )
            limit = machine.manager.max_delayed_ratio
            if ratio > limit * (1.0 + 1e-6) + 1e-12:
                return (
                    f"candidate {evaluation.capacity_bytes} B: timeout "
                    f"{timeout:.3f}s violates eq. (6): delayed ratio "
                    f"{ratio:.3e} > limit {limit:.3e}"
                )
    return None


def _draw_bank_capacity(rng, spec, least: int = 1) -> int:
    banks = spec.installed_bytes // spec.bank_bytes
    return spec.bank_bytes * int(rng.integers(least, banks + 1))


def _draw_disk_timeout(rng, machine) -> float:
    return float(
        rng.choice([0.0, 1.0, machine.disk.break_even_time_s, 30.0, math.inf])
    )


def check_energy(case: VerifyCase) -> Optional[str]:
    """Incremental drive accounting vs event-by-event integration."""
    machine = random_small_machine(case.seed)
    rng = np.random.default_rng(case.seed ^ 0xD15C)
    capacity = _draw_bank_capacity(rng, machine.memory)
    timeout = _draw_disk_timeout(rng, machine)
    memory = NapMemorySystem(machine.memory, capacity)
    engine = SimulationEngine(
        machine,
        memory,
        disk_policy=FixedTimeoutPolicy(timeout),
        label="verify-energy",
        record_events=True,
    )
    trace = Trace(
        times=case.times, pages=case.pages, page_size=machine.page_bytes
    )
    engine.run(trace)
    assert engine.disk.events is not None
    integrated = oracles.integrate_disk_events(
        engine.disk.events.events, machine.disk
    )
    booked = engine.disk.energy
    for name in ("active_s", "idle_s", "standby_s", "transition_s"):
        fast = getattr(booked, name)
        slow = getattr(integrated, name)
        if abs(fast - slow) > 1e-6:
            return (
                f"{name}: incremental accounting {fast:.9f} != event "
                f"integration {slow:.9f} (timeout {timeout}, capacity "
                f"{capacity} B)"
            )
    if booked.spin_down_cycles != integrated.spin_down_cycles:
        return (
            f"spin-down cycles: {booked.spin_down_cycles} != "
            f"{integrated.spin_down_cycles}"
        )
    if booked.requests != integrated.requests:
        return f"requests: {booked.requests} != {integrated.requests}"
    fast_j = booked.total_joules(machine.disk)
    slow_j = integrated.total_joules(machine.disk)
    if not math.isclose(fast_j, slow_j, rel_tol=1e-9, abs_tol=1e-6):
        return f"total energy: {fast_j} J != {slow_j} J"
    return None


def deep_diff(a, b, path: str = "result") -> Optional[str]:
    """First difference between two values, compared *exactly*.

    Recurses through dataclasses, lists/tuples, dicts and numpy arrays
    (``dataclasses.asdict`` equality breaks on arrays nested inside the
    joint decisions' evaluations).  Floats must be bit-equal apart from
    NaN, which compares equal to NaN -- the fast replays promise the
    identical floating-point operations, not merely close ones.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return f"{path}: array vs {type(b).__name__}"
        if a.shape != b.shape:
            return f"{path}: shape {a.shape} != {b.shape}"
        if not bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f")):
            return f"{path}: arrays differ"
        return None
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            return f"{path}: {type(a).__name__} vs {type(b).__name__}"
        for f in dataclasses.fields(a):
            diff = deep_diff(
                getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}"
            )
            if diff is not None:
                return diff
        return None
    if isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)!r}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = deep_diff(x, y, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if isinstance(a, dict):
        if not isinstance(b, dict) or set(a) != set(b):
            return f"{path}: keys differ"
        for k in a:
            diff = deep_diff(a[k], b[k], f"{path}[{k!r}]")
            if diff is not None:
                return diff
        return None
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return None
        return None if a == b else f"{path}: {a!r} != {b!r}"
    return None if a == b else f"{path}: {a!r} != {b!r}"


# --- the parity check -----------------------------------------------------------


class _RequestAwareTimeout(FixedTimeoutPolicy):
    """A fixed timeout that *looks* request-aware.

    Overriding ``on_request`` (behaviourally a no-op) opts the policy
    out of the miss-run upgrade, so the ``vectorized`` scenario keeps
    pinning the plain ``"vectorized"`` mode -- every miss through the
    scalar ``_serve_miss`` -- while the ``missrun`` scenario owns the
    batched path.
    """

    def on_request(self, now, latency_s, wake_delay_s, idle_before_s):
        return super().on_request(now, latency_s, wake_delay_s, idle_before_s)


#: One leg of a scenario: replays it and returns the result plus the
#: disk event log (None unless the scenario records one).
_Replay = Callable[[], Tuple[SimResult, Optional[list]]]


@dataclass(frozen=True)
class _Scenario:
    """One parity scenario, as drawn from a case."""

    #: The ``replay_mode`` the fast leg must report.
    mode: str
    #: The scenario's draws, appended to a divergence report.
    context: str
    #: Run with the fast paths enabled.
    fast: _Replay
    #: Run under the ``$REPRO_KERNELS`` kill switch: the scalar loop.
    reference: _Replay


def _offline(mode, context, build, trace, warm, warmup_s=0.0) -> _Scenario:
    """An offline scenario: both legs replay ``trace`` with its profile
    through a fresh ``build(prefill)`` engine, warm-started or cold."""
    prefill = warm_start_pages(trace) if warm else []
    profile = build_profile(trace, warm_start=warm)

    def replay():
        engine = build(prefill)
        result = engine.run(trace, warmup_s=warmup_s, profile=profile)
        events = engine.disk.events
        return result, None if events is None else events.events

    return _Scenario(mode, context, replay, replay)


def _fixed_memory(spec, model: str, capacity: int, prefill, pd_timeout=None):
    """A prefilled fixed-capacity nap or power-down memory."""
    if model == "nap":
        memory = NapMemorySystem(spec, capacity)
    else:
        memory = PowerDownMemorySystem(spec, capacity, pd_timeout)
    if prefill:
        memory.prefill(prefill)
    return memory


def _stretched(times: np.ndarray, period: float) -> np.ndarray:
    """``times`` stretched across ~3.25 periods: interior boundaries, an
    access-free trailing period, and at least two live resizes."""
    span = max(float(times[-1]), 1e-3)
    return times * (3.25 * period / span)


def _stretched_trace(case: VerifyCase, machine) -> Trace:
    return Trace(
        times=_stretched(case.times, machine.manager.period_s),
        pages=case.pages,
        page_size=machine.page_bytes,
    )


def _vectorized_scenario(case, machine, rng) -> _Scenario:
    """Fixed capacity, per-miss policy hooks: nap or power-down memory
    (spec, zero, quarter-second or infinite power-down timeout), warm-ups
    of whole periods, and half the seeds snapped to a 0.25-s grid so
    same-bank accesses tie exactly on a power-down boundary."""
    spec = machine.memory
    capacity = _draw_bank_capacity(rng, spec)
    timeout = _draw_disk_timeout(rng, machine)
    warm = bool(rng.integers(0, 2))
    model = ("nap", "pd")[int(rng.integers(0, 2))]
    pd_timeout = (None, 0.0, 0.25, math.inf)[int(rng.integers(0, 4))]
    times = case.times
    if rng.integers(0, 2):
        times = np.floor(times * 4.0) / 4.0
    trace = Trace(times=times, pages=case.pages, page_size=machine.page_bytes)
    period = machine.manager.period_s
    periods = max(int(np.ceil(trace.duration_s / period)), 1)
    warmup = period * int(rng.integers(0, periods))

    def build(prefill):
        return SimulationEngine(
            machine,
            _fixed_memory(spec, model, capacity, prefill, pd_timeout),
            disk_policy=_RequestAwareTimeout(timeout),
            label="verify-parity",
        )

    return _offline(
        kernels.MODE_VECTORIZED,
        f"(model {model}, power-down timeout {pd_timeout}, timeout "
        f"{timeout}, capacity {capacity} B, warm={warm}, warm-up {warmup}s)",
        build,
        trace,
        warm,
        warmup,
    )


def _missrun_scenario(case, machine, rng) -> _Scenario:
    """Batched miss runs: capacities down to zero, the 2T and always-on
    policies, and the disk event log recorded on half the seeds."""
    spec = machine.memory
    capacity = _draw_bank_capacity(rng, spec, least=0)
    timeout = _draw_disk_timeout(rng, machine)
    model = ("nap", "pd")[int(rng.integers(0, 2))]
    always_on = bool(rng.integers(0, 2))
    warm = bool(rng.integers(0, 2))
    record = bool(rng.integers(0, 2))
    trace = Trace(
        times=case.times, pages=case.pages, page_size=machine.page_bytes
    )

    def build(prefill):
        policy = AlwaysOnPolicy() if always_on else FixedTimeoutPolicy(timeout)
        return SimulationEngine(
            machine,
            _fixed_memory(spec, model, capacity, prefill),
            disk_policy=policy,
            label="verify-parity",
            record_events=record,
        )

    return _offline(
        kernels.MODE_MISSRUN,
        f"(model {model}, policy {'ON' if always_on else '2T'}, timeout "
        f"{timeout}, capacity {capacity} B, warm={warm}, events={record})",
        build,
        trace,
        warm,
    )


def _writes_scenario(case, machine, rng) -> _Scenario:
    """Write-carrying runs: fuzzed write flags and a flush cadence short
    enough that write-back sweeps land inside hit runs."""
    spec = machine.memory
    capacity = _draw_bank_capacity(rng, spec)
    timeout = _draw_disk_timeout(rng, machine)
    model = ("nap", "pd")[int(rng.integers(0, 2))]
    warm = bool(rng.integers(0, 2))
    flush_interval = float(rng.choice([0.05, 1.0, 30.0]))
    writes = rng.random(case.times.size) < 0.4
    if not bool(writes.any()):
        writes[int(rng.integers(0, writes.size))] = True
    trace = Trace(
        times=case.times,
        pages=case.pages,
        page_size=machine.page_bytes,
        writes=writes,
    )

    def build(prefill):
        return SimulationEngine(
            machine,
            _fixed_memory(spec, model, capacity, prefill),
            disk_policy=FixedTimeoutPolicy(timeout),
            label="verify-parity",
            flush_interval_s=flush_interval,
        )

    return _offline(
        kernels.MODE_WRITES,
        f"(model {model}, timeout {timeout}, capacity {capacity} B, "
        f"warm={warm}, flush every {flush_interval}s)",
        build,
        trace,
        warm,
    )


#: The joint ablation flag combinations the epoch scenario rotates
#: through: (enforce_constraints, adapt_memory, adapt_timeout) -- JOINT,
#: JOINT-NC, JOINT-TO, JOINT-MEM.
_EPOCH_VARIANTS = (
    (True, True, True),
    (False, True, True),
    (True, False, True),
    (True, True, False),
)


def _epoch_scenario(case, machine, rng) -> _Scenario:
    """Joint runs over the stretched stream (live resizes, timeout
    updates, empty epochs) from a random initial size; every
    ``PeriodDecision`` and candidate evaluation is part of the diff."""
    trace = _stretched_trace(case, machine)
    flags = _EPOCH_VARIANTS[int(rng.integers(0, len(_EPOCH_VARIANTS)))]
    sizes = candidate_sizes(machine)
    initial = int(sizes[int(rng.integers(0, len(sizes)))])
    warm = bool(rng.integers(0, 2))

    def build(prefill):
        enforce, adapt_memory, adapt_timeout = flags
        manager = JointPowerManager(
            machine,
            initial_memory_bytes=initial,
            enforce_constraints=enforce,
            adapt_memory=adapt_memory,
            adapt_timeout=adapt_timeout,
        )
        memory = NapMemorySystem(machine.memory, manager.memory_bytes)
        if prefill:
            memory.prefill(prefill)
            manager.prefill(prefill)
        return SimulationEngine(
            machine, memory, joint_manager=manager, label="verify-parity"
        )

    return _offline(
        kernels.MODE_EPOCH,
        f"(flags {flags}, initial {initial} B, warm={warm}, period "
        f"{machine.manager.period_s}s)",
        build,
        trace,
        warm,
    )


def _disable_scenario(case, machine, rng) -> _Scenario:
    """The 2TDS model over the stretched stream (its fast mode ignores
    the profile): bank timeouts short against its gaps exercise lazy
    disables, invalidation misses and bank resurrections."""
    trace = _stretched_trace(case, machine)
    spec = machine.memory
    capacity = _draw_bank_capacity(rng, spec)
    bank_timeout = float(
        rng.choice(
            [0.5, 30.0, 0.25 * machine.manager.period_s,
             machine.disk.break_even_time_s]
        )
    )
    disk_timeout = float(rng.choice([0.0, 1.0, 30.0, math.inf]))
    warm = bool(rng.integers(0, 2))

    def build(prefill):
        memory = DisableMemorySystem(spec, capacity, timeout_s=bank_timeout)
        if prefill:
            memory.prefill(prefill)
        return SimulationEngine(
            machine,
            memory,
            disk_policy=FixedTimeoutPolicy(disk_timeout),
            label="verify-parity",
        )

    return _offline(
        kernels.MODE_DISABLE,
        f"(bank timeout {bank_timeout}s, capacity {capacity} B, disk "
        f"timeout {disk_timeout}, warm={warm})",
        build,
        trace,
        warm,
    )


#: Methods the stream scenario rotates through, each with the offline
#: mode it replays read-only and with writes: the four joint ablations,
#: two profiled-replay fixed-timeout methods, two with the request-aware
#: adaptive policy (whose misses run the per-miss policy hooks) and the
#: disable model.
_STREAM_METHODS = {
    "JOINT": (kernels.MODE_EPOCH, kernels.MODE_SCALAR),
    "JOINT-NC": (kernels.MODE_EPOCH, kernels.MODE_SCALAR),
    "JOINT-MEM": (kernels.MODE_EPOCH, kernels.MODE_SCALAR),
    "JOINT-TO": (kernels.MODE_EPOCH, kernels.MODE_SCALAR),
    "2TNAP": (kernels.MODE_MISSRUN, kernels.MODE_WRITES),
    "2TPD": (kernels.MODE_MISSRUN, kernels.MODE_WRITES),
    "ADNAP": (kernels.MODE_VECTORIZED, kernels.MODE_WRITES),
    "ADPD": (kernels.MODE_VECTORIZED, kernels.MODE_WRITES),
    "2TDS": (kernels.MODE_DISABLE, kernels.MODE_SCALAR),
}


def _stream_scenario(case, machine, rng) -> _Scenario:
    """A ``StreamingManager`` fed the stretched stream in ragged batches
    (empty ones included) with idle ``advance`` calls in the gaps, one
    access often snapped onto an exact period boundary, and closed at
    the offline duration; the reference is ``run_method`` on the same
    sequence."""
    period = machine.manager.period_s
    times = _stretched(case.times, period)
    if times.size >= 2 and rng.random() < 0.7:
        # Snap one access onto an exact boundary: the off-by-one epoch
        # edge (side='left' vs 'right') only shows up on exact ties.
        k = int(rng.integers(0, times.size))
        times[k] = period * max(int(round(times[k] / period)), 1)
        times = np.sort(times)
    methods = list(_STREAM_METHODS)
    method = methods[int(rng.integers(0, len(methods)))]
    writes = None
    if rng.random() < 0.25:
        writes = rng.random(times.size) < 0.3
    trace = Trace(
        times=times,
        pages=case.pages,
        page_size=machine.page_bytes,
        writes=writes,
    )
    warm = bool(rng.integers(0, 2))
    duration = float(max(int(np.ceil(float(times[-1]) / period)), 1) * period)
    prefill = warm_start_pages(trace) if warm else []
    has_writes = writes is not None and bool(writes.any())
    n = times.size
    cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(1, 8))).tolist())
    bounds = [0] + cuts + [n]

    def stream():
        manager = StreamingManager(
            method, machine, prefill=prefill, expect_writes=has_writes
        )
        for lo, hi in zip(bounds, bounds[1:]):
            manager.feed(
                times[lo:hi],
                case.pages[lo:hi],
                None if writes is None else writes[lo:hi],
            )
            if rng.random() < 0.4:
                # Idle advance within the gap to the next batch: boundaries
                # that the fire rule allows must not change the outcome.
                next_first = float(times[hi]) if hi < n else duration
                gap = next_first - manager.watermark
                manager.advance(manager.watermark + rng.random() * max(gap, 0.0))
        return manager.close(duration), None

    def offline():
        return run_method(
            method, trace, machine, duration_s=duration, warm_start=warm
        ), None

    mode = _STREAM_METHODS[method][1 if has_writes else 0]
    return _Scenario(
        "stream-" + mode,
        f"(method {method}, warm={warm}, writes={writes is not None})",
        stream,
        offline,
    )


#: The parity scenarios -- one per fast replay mode, plus the stream --
#: in the order every seed runs them, each with its own draw stream.
_PARITY_SCENARIOS = (
    ("vectorized", 0x5E67, _vectorized_scenario),
    ("missrun", 0x3155, _missrun_scenario),
    ("writes", 0x3317E5, _writes_scenario),
    ("epoch", 0xE90C, _epoch_scenario),
    ("disable", 0xD15AB1E, _disable_scenario),
    ("stream", 0x57A3, _stream_scenario),
)


def check_parity(case: VerifyCase) -> Optional[str]:
    """Every fast replay path vs the scalar loop, bit for bit.

    Each scenario draws its memory, policy and trace variant from the
    case seed and replays twice: with the fast paths on, where it must
    report the scenario's mode, and under the ``$REPRO_KERNELS`` kill
    switch.  Every ``SimResult`` field but ``replay_mode`` -- energies,
    latencies, per-period series, every ``PeriodDecision`` -- and the
    disk event log where one was recorded must compare exactly equal.
    """
    if case.times.size == 0:
        return None
    machine = random_small_machine(case.seed)
    for name, salt, draw in _PARITY_SCENARIOS:
        scenario = draw(case, machine, np.random.default_rng(case.seed ^ salt))
        fast, fast_events = scenario.fast()
        if fast.replay_mode != scenario.mode:
            return (
                f"{name}: fast path refused an eligible run (mode "
                f"{fast.replay_mode}, expected {scenario.mode}) "
                f"{scenario.context}"
            )
        with kernels_off():
            slow, slow_events = scenario.reference()
        if slow.replay_mode != kernels.MODE_SCALAR:
            return f"{name}: reference run did not use the scalar loop"
        diff = deep_diff(dataclasses.replace(fast, replay_mode=slow.replay_mode), slow)
        if diff is None and fast_events is not None:
            diff = deep_diff(fast_events, slow_events, "disk_events")
        if diff is not None:
            return f"{name}: {diff} {scenario.context}"
    return None


def _timeouts_equal(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


#: Check registry, in the order ``repro verify`` runs them.
CHECKS: Dict[str, Callable[[VerifyCase], Optional[str]]] = {
    "stack": check_stack_distance,
    "intervals": check_intervals,
    "predictor": check_predictor,
    "joint": check_joint,
    "energy": check_energy,
    "parity": check_parity,
    "optimal": check_optimal,
    "fleet": check_fleet,
}


# --- the runner ---------------------------------------------------------------


def check_names(seeds: int, checks: Optional[Sequence[str]]) -> List[str]:
    """The requested check names (all by default), validated."""
    if seeds <= 0:
        raise SimulationError("need at least one seed")
    names = list(CHECKS) if checks is None else list(checks)
    for name in names:
        if name not in CHECKS:
            raise SimulationError(
                f"unknown check {name!r}; available: {', '.join(CHECKS)}"
            )
    return names


def run_differential(
    seeds: int = 50,
    checks: Optional[Sequence[str]] = None,
    first_seed: int = 0,
    max_accesses: int = 300,
) -> VerifyReport:
    """Replay ``seeds`` fuzzed workloads through every requested check.

    Stops each check at its first divergence and minimizes the failing
    access stream with :func:`minimize_accesses`; the other checks still
    run, so one report shows every broken subsystem.
    """
    report = VerifyReport(first_seed=first_seed, seeds=seeds)
    for name in check_names(seeds, checks):
        fn = CHECKS[name]
        outcome = CheckOutcome(name=name, seeds_run=seeds)
        for offset in range(seeds):
            seed = first_seed + offset
            case = random_case(seed, max_accesses=max_accesses)
            detail = _run_safely(fn, case)
            if detail is not None:
                minimized = _minimize(case, fn)
                final_detail = _run_safely(fn, minimized) or detail
                outcome = CheckOutcome(
                    name=name,
                    seeds_run=offset + 1,
                    divergence=Divergence(
                        check=name,
                        seed=seed,
                        pattern=case.pattern,
                        detail=final_detail,
                        times=tuple(minimized.times.tolist()),
                        pages=tuple(int(p) for p in minimized.pages.tolist()),
                        window_s=case.window_s,
                        period_s=case.period_s,
                    ),
                )
                break
        report.outcomes.append(outcome)
    return report


def _run_safely(
    fn: Callable[[VerifyCase], Optional[str]], case: VerifyCase
) -> Optional[str]:
    """An exception in either path is itself a divergence, not a crash."""
    try:
        return fn(case)
    except Exception as exc:  # noqa: BLE001 - report, don't die mid-fuzz
        return f"exception during check: {type(exc).__name__}: {exc}"


def _minimize(
    case: VerifyCase, fn: Callable[[VerifyCase], Optional[str]]
) -> VerifyCase:
    pairs = case.accesses

    def fails(candidate: List[Tuple[float, int]]) -> bool:
        return _run_safely(fn, _rebuild(case, candidate)) is not None

    try:
        return _rebuild(case, minimize_accesses(pairs, fails))
    except SimulationError:
        return case
