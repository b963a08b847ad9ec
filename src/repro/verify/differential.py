"""Differential runner: fast paths vs brute-force oracles over fuzzed seeds.

Twelve checks, each pairing a production fast path with its oracle from
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
kernels    ``sim.kernels`` vectorized replay                      the scalar engine loop
missrun    ``sim.kernels`` miss-run replay (batched               the scalar engine loop
           ``SimDisk.submit_run`` recurrence, vectorized          (per-miss
           sequential-merge flags, batched clusterer/metrics)     ``_serve_miss``)
writes     ``sim.kernels`` write-carrying vectorized replay       the scalar engine loop
           (dirty marks batched, flush sweeps interleaved)        (write-back path)
epoch      ``sim.kernels`` epoch-segmented joint replay +         the scalar engine loop
           the disable-model (2TDS) pure-hit-prefix replay        driving the live
                                                                  joint manager / the
                                                                  live bank map
optimal    ``verify.optimal`` lazy-heap Belady + clairvoyant      linear-scan Belady,
           disk schedule                                          competitive closed
                                                                  form, one-sided
                                                                  OPT <= online bounds
stream     ``service.streaming.StreamingManager`` incremental     the offline
           feeds (ragged batch splits, idle advances)             ``run_method`` replay
                                                                  of the same sequence
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
from repro.cache.profile import build_profile
from repro.cache.stack_distance import StackDistanceTracker
from repro.core.joint import JointPowerManager
from repro.errors import SimulationError
from repro.memory.system import NapMemorySystem
from repro.policies.fixed_timeout import FixedTimeoutPolicy
from repro.sim.engine import SimulationEngine
from repro.stats.intervals import extract_idle_intervals
from repro.stats.timeout_math import expected_power, optimal_timeout
from repro.traces.trace import Trace
from repro.verify import oracles
from repro.verify.fleet import check_fleet
from repro.verify.optimal import check_optimal
from repro.verify.strategies import VerifyCase, random_case, random_small_machine

#: Tracker capacity used by the stack/predictor/joint checks: tiny, so
#: every fuzzed stream crosses several compaction boundaries.
TRACKER_CAPACITY = 8

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


def check_stack_distance(case: VerifyCase) -> Optional[str]:
    """Both tracker call styles vs the explicit LRU stack.

    The per-access Fenwick ``access`` loop, and ``access_array`` fed the
    same stream in random batches (empty and single-access ones
    included) drawn from the case seed.
    """
    pages = case.pages.tolist()
    slow = oracles.naive_stack_distances(pages)
    tracker = StackDistanceTracker(initial_capacity=TRACKER_CAPACITY)
    loop = [tracker.access(page) for page in pages]

    rng = np.random.default_rng(case.seed)
    n = len(pages)
    cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(0, 8))).tolist())
    bounds = [0] + cuts + [n]
    batched_tracker = StackDistanceTracker()
    batched: List[int] = []
    for lo, hi in zip(bounds, bounds[1:]):
        batched.extend(batched_tracker.access_array(case.pages[lo:hi]).tolist())

    for name, fast in (("access", loop), (f"access_array {bounds}", batched)):
        if fast != slow:
            first = next(i for i, (a, b) in enumerate(zip(fast, slow)) if a != b)
            return (
                f"{name}: stack distance of access {first} (page "
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
    """One-pass per-size prediction vs literally simulating each size."""
    times = case.times.tolist()
    pages = case.pages.tolist()
    tracker = StackDistanceTracker(initial_capacity=TRACKER_CAPACITY)
    predictor = ResizePredictor()
    for now, page in zip(times, pages):
        predictor.record(now, tracker.access(page))
    predictions = predictor.predict(
        PREDICTOR_CAPACITIES,
        window_s=case.window_s,
        period_start=0.0,
        period_end=case.period_s,
    )
    for prediction in predictions:
        capacity = prediction.capacity_pages
        slow_times = oracles.naive_lru_miss_times(times, pages, capacity)
        if prediction.num_disk_accesses != len(slow_times):
            return (
                f"size {capacity}: fast predicts "
                f"{prediction.num_disk_accesses} disk accesses, the literal "
                f"LRU saw {len(slow_times)}"
            )
        slow_idle = oracles.naive_idle_intervals(
            slow_times, case.window_s, period_start=0.0, period_end=case.period_s
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
    delayed-ratio constraint at the chosen timeout.
    """
    machine = random_small_machine(case.seed)
    manager = JointPowerManager(machine)
    times = case.times.tolist()
    pages = case.pages.tolist()
    for now, page in zip(times, pages):
        manager.record_access(now, page)
    decision = manager.end_period(case.period_s)
    evaluations = decision.evaluations
    period_s = case.period_s
    disk = machine.disk

    # (1) predictions vs the literal per-size LRU simulation.
    for evaluation in evaluations:
        prediction = evaluation.prediction
        slow_times = oracles.naive_lru_miss_times(
            times, pages, prediction.capacity_pages
        )
        if prediction.num_disk_accesses != len(slow_times):
            return (
                f"candidate {prediction.capacity_pages} pages: fast predicts "
                f"{prediction.num_disk_accesses} disk accesses, literal LRU "
                f"saw {len(slow_times)}"
            )
        slow_idle = oracles.naive_idle_intervals(
            slow_times,
            machine.manager.aggregation_window_s,
            period_start=0.0,
            period_end=period_s,
        )
        if prediction.idle.count != len(slow_idle) or not np.allclose(
            prediction.idle.lengths, np.asarray(slow_idle), rtol=0.0, atol=1e-9
        ):
            return (
                f"candidate {prediction.capacity_pages} pages: idle intervals "
                f"{prediction.idle.lengths.tolist()} != oracle {slow_idle}"
            )

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


def check_energy(case: VerifyCase) -> Optional[str]:
    """Incremental drive accounting vs event-by-event integration."""
    machine = random_small_machine(case.seed)
    rng = np.random.default_rng(case.seed ^ 0xD15C)
    spec = machine.memory
    banks = spec.installed_bytes // spec.bank_bytes
    capacity = spec.bank_bytes * int(rng.integers(1, banks + 1))
    timeout = float(
        rng.choice([0.0, 1.0, machine.disk.break_even_time_s, 30.0, math.inf])
    )
    memory = NapMemorySystem(spec, capacity)
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


class _RequestAwareTimeout(FixedTimeoutPolicy):
    """A fixed timeout that *looks* request-aware.

    Overriding ``on_request`` (behaviourally a no-op) opts the policy
    out of the miss-run upgrade, so ``check_kernels`` keeps pinning the
    plain ``"vectorized"`` mode -- every miss through the scalar
    ``_serve_miss`` -- while ``check_missrun`` owns the batched path.
    """

    def on_request(self, now, latency_s, wake_delay_s, idle_before_s):
        return super().on_request(now, latency_s, wake_delay_s, idle_before_s)


def check_kernels(case: VerifyCase) -> Optional[str]:
    """Vectorized replay kernels vs the scalar engine loop, bit for bit.

    Both replays run the same fuzzed trace through fresh engines; the
    fast one gets a :class:`TraceProfile`, the reference one does not.
    Every ``SimResult`` field -- energies, latencies, per-period series --
    must compare exactly equal (no tolerance: the kernels promise the
    identical floating-point operations, not merely close ones).  The
    policy advertises a request-aware hook so the run stays on the
    per-miss ``"vectorized"`` mode; the batched-miss upgrade has its own
    ``missrun`` check.

    Rotates the nap and power-down memory models -- power-down with its
    spec timeout, none, an instant one or a quarter second -- and a
    warm-up of zero or a whole number of periods, whose checkpoint
    leaves every bank's accounting mark past its last access.  Half the
    seeds snap the times to a quarter-second grid, so same-bank accesses
    tie and land exactly on a power-down boundary.
    """
    from repro.memory.system import PowerDownMemorySystem
    from repro.sim.prefill import warm_start_pages

    machine = random_small_machine(case.seed)
    rng = np.random.default_rng(case.seed ^ 0x5E67)
    spec = machine.memory
    banks = spec.installed_bytes // spec.bank_bytes
    capacity = spec.bank_bytes * int(rng.integers(1, banks + 1))
    timeout = float(
        rng.choice([0.0, 1.0, machine.disk.break_even_time_s, 30.0, math.inf])
    )
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
    prefill = warm_start_pages(trace) if warm else []

    def replay(profile):
        if model == "nap":
            memory = NapMemorySystem(spec, capacity)
        else:
            memory = PowerDownMemorySystem(spec, capacity, pd_timeout)
        if prefill:
            memory.prefill(prefill)
        engine = SimulationEngine(
            machine,
            memory,
            disk_policy=_RequestAwareTimeout(timeout),
            label="verify-kernels",
        )
        return engine.run(trace, warmup_s=warmup, profile=profile)

    fast = replay(build_profile(trace, warm_start=warm))
    slow = replay(None)
    if fast.replay_mode != "vectorized":
        return f"fast path refused an eligible run (mode {fast.replay_mode})"
    if slow.replay_mode != "scalar":
        return "reference run did not use the scalar loop"
    for f in dataclasses.fields(fast):
        if f.name == "replay_mode":
            continue
        diff = deep_diff(getattr(fast, f.name), getattr(slow, f.name), f.name)
        if diff is not None:
            return (
                f"{diff} (model {model}, power-down timeout {pd_timeout}, "
                f"timeout {timeout}, capacity {capacity} B, warm={warm}, "
                f"warm-up {warmup}s)"
            )
    return None


def check_missrun(case: VerifyCase) -> Optional[str]:
    """Batched miss-run replay vs the scalar engine loop, bit for bit.

    Rotates the nap and power-down memory models, random capacities
    (including zero -- an all-miss trace is one long boundary-split miss
    run), the 2T and always-on policies, disk timeouts from never to
    instant, and warm starts.  Half the seeds record the disk event log
    on both legs and compare it event for event, so the batched
    ``submit_run`` must also interleave its buffered submit records with
    spin-downs in exactly the scalar order.
    """
    from repro.memory.system import PowerDownMemorySystem
    from repro.policies.always_on import AlwaysOnPolicy
    from repro.sim.prefill import warm_start_pages

    if case.times.size == 0:
        return None
    machine = random_small_machine(case.seed)
    rng = np.random.default_rng(case.seed ^ 0x3155)
    spec = machine.memory
    banks = spec.installed_bytes // spec.bank_bytes
    capacity = spec.bank_bytes * int(rng.integers(0, banks + 1))
    timeout = float(
        rng.choice([0.0, 1.0, machine.disk.break_even_time_s, 30.0, math.inf])
    )
    model = ("nap", "pd")[int(rng.integers(0, 2))]
    always_on = bool(rng.integers(0, 2))
    warm = bool(rng.integers(0, 2))
    record = bool(rng.integers(0, 2))
    trace = Trace(
        times=case.times, pages=case.pages, page_size=machine.page_bytes
    )
    prefill = warm_start_pages(trace) if warm else []
    context = (
        f"(model {model}, policy {'ON' if always_on else '2T'}, timeout "
        f"{timeout}, capacity {capacity} B, warm={warm}, events={record})"
    )

    def replay(profile):
        if model == "nap":
            memory = NapMemorySystem(spec, capacity)
        else:
            memory = PowerDownMemorySystem(spec, capacity)
        if prefill:
            memory.prefill(prefill)
        policy = AlwaysOnPolicy() if always_on else FixedTimeoutPolicy(timeout)
        engine = SimulationEngine(
            machine,
            memory,
            disk_policy=policy,
            label="verify-missrun",
            record_events=record,
        )
        return engine.run(trace, profile=profile), engine

    fast, fast_engine = replay(build_profile(trace, warm_start=warm))
    slow, slow_engine = replay(None)
    if fast.replay_mode != "missrun":
        return (
            f"fast path refused an eligible miss-run replay "
            f"(mode {fast.replay_mode}) {context}"
        )
    if slow.replay_mode != "scalar":
        return "reference run did not use the scalar loop"
    for f in dataclasses.fields(fast):
        if f.name == "replay_mode":
            continue
        diff = deep_diff(getattr(fast, f.name), getattr(slow, f.name), f.name)
        if diff is not None:
            return f"{diff} {context}"
    if record:
        diff = deep_diff(
            fast_engine.disk.events.events,
            slow_engine.disk.events.events,
            "disk_events",
        )
        if diff is not None:
            return f"{diff} {context}"
    return None


def check_writes(case: VerifyCase) -> Optional[str]:
    """Write-carrying vectorized replay vs the scalar engine loop, bit for bit.

    Rotates the nap and power-down memory models, random capacities,
    disk timeouts and warm starts, with fuzzed per-access write flags
    and a flush cadence short enough that periodic write-back sweeps
    land *inside* hit runs; the fast replay must reproduce every flush,
    dirty eviction and energy figure exactly.
    """
    from repro.memory.system import PowerDownMemorySystem
    from repro.sim.prefill import warm_start_pages

    if case.times.size == 0:
        return None
    machine = random_small_machine(case.seed)
    rng = np.random.default_rng(case.seed ^ 0x3317E5)
    spec = machine.memory
    banks = spec.installed_bytes // spec.bank_bytes
    capacity = spec.bank_bytes * int(rng.integers(1, banks + 1))
    timeout = float(
        rng.choice([0.0, 1.0, machine.disk.break_even_time_s, 30.0, math.inf])
    )
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
    prefill = warm_start_pages(trace) if warm else []

    def replay(profile):
        if model == "nap":
            memory = NapMemorySystem(spec, capacity)
        else:
            memory = PowerDownMemorySystem(spec, capacity)
        if prefill:
            memory.prefill(prefill)
        engine = SimulationEngine(
            machine,
            memory,
            disk_policy=FixedTimeoutPolicy(timeout),
            label="verify-writes",
            flush_interval_s=flush_interval,
        )
        return engine.run(trace, profile=profile)

    fast = replay(build_profile(trace, warm_start=warm))
    slow = replay(None)
    if fast.replay_mode != "writes":
        return f"fast path refused an eligible write run (mode {fast.replay_mode})"
    if slow.replay_mode != "scalar":
        return "reference run did not use the scalar loop"
    for f in dataclasses.fields(fast):
        if f.name == "replay_mode":
            continue
        diff = deep_diff(getattr(fast, f.name), getattr(slow, f.name), f.name)
        if diff is not None:
            return (
                f"{diff} (model {model}, timeout {timeout}, capacity "
                f"{capacity} B, warm={warm}, flush every {flush_interval}s)"
            )
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


#: The joint ablation flag combinations check_epoch rotates through:
#: (enforce_constraints, adapt_memory, adapt_timeout) -- JOINT, JOINT-NC,
#: JOINT-TO, JOINT-MEM.
_EPOCH_VARIANTS = (
    (True, True, True),
    (False, True, True),
    (True, False, True),
    (True, True, False),
)


def check_epoch(case: VerifyCase) -> Optional[str]:
    """Epoch-segmented joint replay vs the scalar engine loop, bit for bit.

    The fuzzed access stream is stretched to span several manager periods
    so the epoch kernel crosses live boundaries (resizes, timeout
    updates, empty epochs); both replays then run through fresh engines
    and managers, and every ``SimResult`` field *and* every
    ``PeriodDecision`` -- including each candidate evaluation's
    prediction and fit -- must compare exactly equal.

    A second leg runs the same stretched stream through the
    disable-state (2TDS) memory model: its profile-free pure-hit-prefix
    replay (``replay_mode == "disable"``) must match a scalar run forced
    via the ``REPRO_KERNELS`` kill switch across bank invalidations,
    lazy disables and resurrection misses.
    """
    import os

    from repro.cache.profile import KERNELS_ENV
    from repro.core.enumeration import candidate_sizes
    from repro.memory.system import DisableMemorySystem
    from repro.sim.prefill import warm_start_pages

    if case.times.size == 0:
        return None
    machine = random_small_machine(case.seed)
    rng = np.random.default_rng(case.seed ^ 0xE90C)
    period = machine.manager.period_s
    # Stretch the stream across ~3.25 periods: interior boundaries, an
    # access-free trailing period, and at least two live resizes.
    span = max(float(case.times[-1]), 1e-3)
    times = case.times * (3.25 * period / span)
    trace = Trace(times=times, pages=case.pages, page_size=machine.page_bytes)

    flags = _EPOCH_VARIANTS[int(rng.integers(0, len(_EPOCH_VARIANTS)))]
    sizes = candidate_sizes(machine)
    initial = int(sizes[int(rng.integers(0, len(sizes)))])
    warm = bool(rng.integers(0, 2))
    prefill = warm_start_pages(trace) if warm else []

    def replay(profile):
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
        engine = SimulationEngine(
            machine, memory, joint_manager=manager, label="verify-epoch"
        )
        return engine.run(trace, profile=profile)

    fast = replay(build_profile(trace, warm_start=warm))
    slow = replay(None)
    if fast.replay_mode != "epoch":
        return f"fast path refused an eligible joint run (mode {fast.replay_mode})"
    if slow.replay_mode != "scalar":
        return "reference run did not use the scalar loop"
    for f in dataclasses.fields(fast):
        if f.name == "replay_mode":
            continue
        diff = deep_diff(getattr(fast, f.name), getattr(slow, f.name), f.name)
        if diff is not None:
            return (
                f"{diff} (flags {flags}, initial {initial} B, warm={warm}, "
                f"period {period}s)"
            )

    # --- disable-model (2TDS) leg ---------------------------------------
    spec = machine.memory
    banks = spec.installed_bytes // spec.bank_bytes
    ds_capacity = spec.bank_bytes * int(rng.integers(1, banks + 1))
    # Short timeouts relative to the stretched gaps exercise lazy
    # disables, invalidation misses and bank resurrections.
    ds_timeout = float(
        rng.choice([0.5, 30.0, 0.25 * period, machine.disk.break_even_time_s])
    )
    disk_timeout = float(rng.choice([0.0, 1.0, 30.0, math.inf]))

    def replay_ds():
        memory = DisableMemorySystem(spec, ds_capacity, timeout_s=ds_timeout)
        if prefill:
            memory.prefill(prefill)
        engine = SimulationEngine(
            machine,
            memory,
            disk_policy=FixedTimeoutPolicy(disk_timeout),
            label="verify-epoch-ds",
        )
        return engine.run(trace)

    fast_ds = replay_ds()
    previous = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = "0"
    try:
        slow_ds = replay_ds()
    finally:
        if previous is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = previous
    if fast_ds.replay_mode != "disable":
        return (
            f"fast path refused an eligible 2TDS run (mode {fast_ds.replay_mode})"
        )
    if slow_ds.replay_mode != "scalar":
        return "2TDS reference run did not use the scalar loop"
    for f in dataclasses.fields(fast_ds):
        if f.name == "replay_mode":
            continue
        diff = deep_diff(
            getattr(fast_ds, f.name), getattr(slow_ds, f.name), f.name
        )
        if diff is not None:
            return (
                f"{diff} (2TDS leg: bank timeout {ds_timeout}s, capacity "
                f"{ds_capacity} B, disk timeout {disk_timeout}, warm={warm})"
            )
    return None


#: Method families the stream check rotates through: the four joint
#: ablations (stream-epoch; stream-scalar when the fuzz adds writes),
#: two profiled-replay fixed-timeout methods (stream-missrun, or
#: stream-writes under writes), two with the request-aware adaptive
#: policy (stream-vectorized, whose misses run the per-miss policy
#: hooks) and the disable model (stream-disable).
_STREAM_METHODS = (
    "JOINT",
    "JOINT-NC",
    "JOINT-MEM",
    "JOINT-TO",
    "2TNAP",
    "2TPD",
    "ADNAP",
    "ADPD",
    "2TDS",
)


def check_stream(case: VerifyCase) -> Optional[str]:
    """Streaming replay vs the offline run of the same sequence, bit for bit.

    The fuzzed stream is stretched across several manager periods, fed to
    a :class:`~repro.service.streaming.StreamingManager` in random ragged
    batches (empty batches and idle ``advance`` calls interleaved, and
    occasionally an access snapped to an exact period boundary -- the
    epoch-edge case), then closed at the offline run's duration.  Every
    ``SimResult`` field must compare exactly equal to ``run_method`` on
    the identical access sequence, and the stream must land on the
    streaming twin of the offline replay mode.
    """
    from repro.service.streaming import StreamingManager
    from repro.sim.prefill import warm_start_pages
    from repro.sim.runner import run_method

    if case.times.size == 0:
        return None
    machine = random_small_machine(case.seed)
    rng = np.random.default_rng(case.seed ^ 0x57A3)
    period = machine.manager.period_s
    span = max(float(case.times[-1]), 1e-3)
    times = case.times * (3.25 * period / span)
    if times.size >= 2 and rng.random() < 0.7:
        # Snap one access onto an exact boundary: the off-by-one epoch
        # edge (side='left' vs 'right') only shows up on exact ties.
        k = int(rng.integers(0, times.size))
        times = times.copy()
        times[k] = period * max(int(round(times[k] / period)), 1)
        times = np.sort(times)
    method = _STREAM_METHODS[int(rng.integers(0, len(_STREAM_METHODS)))]
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
    duration = max(int(np.ceil(float(times[-1]) / period)), 1) * period
    prefill = warm_start_pages(trace) if warm else []
    context = f"(method {method}, warm={warm}, writes={writes is not None})"

    offline = run_method(
        method, trace, machine, duration_s=float(duration), warm_start=warm
    )
    stream = StreamingManager(
        method,
        machine,
        prefill=prefill,
        expect_writes=writes is not None and bool(writes.any()),
    )
    n = times.size
    cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(1, 8))).tolist())
    bounds = [0] + cuts + [n]
    for lo, hi in zip(bounds, bounds[1:]):
        stream.feed(
            times[lo:hi],
            case.pages[lo:hi],
            None if writes is None else writes[lo:hi],
        )
        if rng.random() < 0.4:
            # Idle advance within the gap to the next batch: boundaries
            # that the fire rule allows must not change the outcome.
            next_first = float(times[hi]) if hi < n else float(duration)
            gap = next_first - stream.watermark
            stream.advance(stream.watermark + rng.random() * max(gap, 0.0))
    result = stream.close(float(duration))

    expected_mode = f"stream-{offline.replay_mode}"
    if result.replay_mode != expected_mode:
        return (
            f"stream replay mode {result.replay_mode} != expected "
            f"{expected_mode} {context}"
        )
    for f in dataclasses.fields(result):
        if f.name == "replay_mode":
            continue
        diff = deep_diff(getattr(result, f.name), getattr(offline, f.name), f.name)
        if diff is not None:
            return f"{diff} {context}"
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
    "kernels": check_kernels,
    "missrun": check_missrun,
    "writes": check_writes,
    "epoch": check_epoch,
    "optimal": check_optimal,
    "stream": check_stream,
    "fleet": check_fleet,
}


# --- the runner ---------------------------------------------------------------


def run_differential(
    seeds: int = 50,
    checks: Optional[Sequence[str]] = None,
    first_seed: int = 0,
    max_accesses: int = 300,
    on_progress: Optional[Callable[[str, int], None]] = None,
) -> VerifyReport:
    """Replay ``seeds`` fuzzed workloads through every requested check.

    Stops each check at its first divergence and minimizes the failing
    access stream with :func:`minimize_accesses`; the other checks still
    run, so one report shows every broken subsystem.
    """
    if seeds <= 0:
        raise SimulationError("need at least one seed")
    names = list(CHECKS) if checks is None else list(checks)
    for name in names:
        if name not in CHECKS:
            raise SimulationError(
                f"unknown check {name!r}; available: {', '.join(CHECKS)}"
            )
    report = VerifyReport(first_seed=first_seed, seeds=seeds)
    for name in names:
        fn = CHECKS[name]
        outcome = CheckOutcome(name=name, seeds_run=seeds)
        for offset in range(seeds):
            seed = first_seed + offset
            if on_progress is not None:
                on_progress(name, seed)
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
