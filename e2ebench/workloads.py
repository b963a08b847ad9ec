"""The three benchmark workloads.

Each workload builds its inputs from the seed (``setup``), runs one
repetition of its measured work (``instance``), and checks its outputs
(``check``).  An instance is the unit the measured phase repeats:

* ``simulate-joint``: one ``run_method("JOINT", ...)`` with warm start on
  the ``paper-default`` suite (one op).
* ``compare-methods``: the paper's 16-method comparison at one Fig. 7
  point, planned with ``grid_tasks`` and resolved by
  ``run_campaign(jobs=1, cache=None)`` (16 ops, one per task).
* ``serve-tenants``: one pass of a ``SessionRegistry`` serving two JOINT
  tenants, fed by one closed-loop client in trace-time order (one op per
  ``feed`` and per ``close``).

Every instance starts from a cold profile memo, with no persistent
profile cache and the ``REPRO_KERNELS``/``REPRO_PROFILE_MEMO`` switches
unset (:func:`assert_cold`).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro.cache import profile as trace_profiles
from repro.campaign import executor as campaign_executor
from repro.campaign.plan import GridPoint, grid_tasks
from repro.campaign.tasks import WorkloadSpec
from repro.config.machine import scaled_machine
from repro.policies.registry import standard_methods
from repro.service.sessions import SessionRegistry
from repro.sim import prefill as sim_prefill
from repro.sim import runner as sim_runner
from repro.traces import suites

import checks

#: Environment switches that would change which code path runs.
SWITCHES = (trace_profiles.KERNELS_ENV, trace_profiles.PROFILE_MEMO_ENV)


@dataclasses.dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    joint_scale: int
    compare_scale: int
    warmup_periods: int
    measured_periods: int
    #: Seconds of trace per ``feed`` on serve-tenants.
    feed_s: float = 5.0
    #: Offline/stream check slice: accesses before ``slice_end_s``,
    #: replayed over one warm-up and one measured period.
    slice_end_s: float = 700.0
    #: compare-methods check slice: accesses before this, one period.
    compare_slice_end_s: float = 300.0


FULL = Size(joint_scale=64, compare_scale=128, warmup_periods=1, measured_periods=4)
#: For the benchmark's self-tests only.
TINY = Size(joint_scale=1024, compare_scale=1024, warmup_periods=1, measured_periods=1)
SIZES = {"full": FULL, "tiny": TINY}


@dataclasses.dataclass
class Instance:
    """One repetition of a workload's measured work."""

    wall_s: float
    ops_s: List[float]
    accesses: int
    results: list
    failed: int = 0
    #: Which of the run's inputs (see :func:`make_inputs`) it replayed.
    input: int = 0
    #: Largest stream backlog seen after a feed (traced serve-tenants only).
    pending_peak: int = 0


def assert_cold() -> None:
    """Every measured op starts cold: no memo, no persistent profile cache,
    no code-path switches in the environment."""
    for name in SWITCHES:
        if name in os.environ:
            raise RuntimeError(f"${name} is set; the benchmark runs without it")
    if trace_profiles.active_cache() is not None:
        raise RuntimeError("a persistent profile cache is installed")
    trace_profiles.clear_memo()


class Workload:
    name = ""
    #: Inputs a run builds, each from its own seed.  Repetitions rotate
    #: through them, so how much work one seed's trace happens to need
    #: averages out: one compare-methods instance took 30 % longer at
    #: seed 104 than at seed 103 on the same host.
    inputs = 2

    def __init__(self, seed: int, size: Size = FULL) -> None:
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        raise NotImplementedError

    def instance(self, tracer=None) -> Instance:
        raise NotImplementedError

    def check(self) -> List[str]:
        """Slice checks against the reference path (outside the timed phase)."""
        raise NotImplementedError

    def sim_metrics(self, instance: Instance) -> Dict[str, float]:
        raise NotImplementedError

    def mode_problems(self, instance: Instance) -> List[str]:
        """Replay modes the workload must take; a fallback is a failure."""
        return [
            f"{r.label} fell back to the scalar loop"
            for r in instance.results
            if r.replay_mode == "scalar"
        ]

    def _durations(self, machine):
        period = machine.manager.period_s
        warmup = self.size.warmup_periods * period
        return warmup + self.size.measured_periods * period, warmup


class SimulateJoint(Workload):
    name = "simulate-joint"

    def setup(self) -> None:
        self.machine = scaled_machine(self.size.joint_scale)
        self.duration_s, self.warmup_s = self._durations(self.machine)
        self.trace = suites.build("paper-default", self.machine, self.duration_s, seed=self.seed)

    def instance(self, tracer=None) -> Instance:
        assert_cold()
        start = time.perf_counter()
        result = sim_runner.run_method(
            "JOINT", self.trace, self.machine, duration_s=self.duration_s, warmup_s=self.warmup_s
        )
        wall = time.perf_counter() - start
        return Instance(wall, [wall], self.trace.num_accesses, [result])

    def check(self) -> List[str]:
        period = self.machine.manager.period_s
        piece = self.trace.slice_time(0.0, self.size.slice_end_s)
        return checks.offline_slice_diffs(["JOINT"], piece, self.machine, 2 * period, period)

    def mode_problems(self, instance: Instance) -> List[str]:
        (result,) = instance.results
        return [] if result.replay_mode == "epoch" else [f"JOINT replayed {result.replay_mode}, not epoch"]

    def sim_metrics(self, instance: Instance) -> Dict[str, float]:
        (result,) = instance.results
        return {
            "sim_energy_j": result.total_energy_j,
            "sim_long_latency_per_s": result.long_latency_per_s,
            "sim_disk_util": result.utilization,
        }


class CompareMethods(Workload):
    name = "compare-methods"

    def setup(self) -> None:
        self.machine = scaled_machine(self.size.compare_scale)
        self.duration_s, self.warmup_s = self._durations(self.machine)
        self.methods = tuple(standard_methods())
        workload = WorkloadSpec.for_machine(
            self.machine, dataset_gb=16, rate_mb=100, popularity=0.1,
            duration_s=self.duration_s, seed=self.seed,
        )
        self.point = GridPoint(
            machine=self.machine, workload=workload, methods=self.methods,
            duration_s=self.duration_s, warmup_s=self.warmup_s,
        )
        self.tasks = grid_tasks([self.point])
        # Built here only to count accesses and to slice for the check;
        # every task rebuilds its own trace, as a campaign worker does.
        self.trace = workload.build()

    def instance(self, tracer=None) -> Instance:
        assert_cold()
        results = []
        ticks = []
        original = sim_runner.run_method

        def capture(*args, **kwargs):
            # SimTask.execute imports run_method at call time; keep each
            # SimResult for the audit, which runs after the timed phase.
            result = original(*args, **kwargs)
            results.append(result)
            return result

        def progress(record, done, total):
            ticks.append(time.perf_counter())

        tasks = self.tasks
        sim_runner.run_method = capture
        try:
            start = time.perf_counter()
            kwargs = dict(jobs=1, cache=None, retries=0, on_progress=progress)
            if tracer is None:
                report = campaign_executor.run_campaign(tasks, **kwargs)
            else:
                report = tracer.call("campaign.run", campaign_executor.run_campaign, tasks, **kwargs)
            wall = time.perf_counter() - start
        finally:
            sim_runner.run_method = original
        self.tasks = grid_tasks([self.point])  # fresh objects, keys not yet hashed
        if trace_profiles.active_cache() is not None:
            raise RuntimeError("run_campaign left a persistent profile cache installed")
        ops = list(np.diff([start] + ticks))
        failed = sum(1 for record in report.records if not record.ok)
        return Instance(wall, ops, self.trace.num_accesses * len(tasks), results, failed)

    def check(self) -> List[str]:
        period = self.machine.manager.period_s
        piece = self.trace.slice_time(0.0, self.size.compare_slice_end_s)
        return checks.offline_slice_diffs(self.methods, piece, self.machine, period, 0.0)

    def sim_metrics(self, instance: Instance) -> Dict[str, float]:
        (joint,) = [r for r in instance.results if r.label == "JOINT"]
        return {
            "sim_energy_j": joint.total_energy_j,
            "sim_long_latency_per_s": joint.long_latency_per_s,
            "sim_disk_util": joint.utilization,
        }


class ServeTenants(Workload):
    name = "serve-tenants"
    #: One pass takes about 10 s; a second input would halve the
    #: repetitions each op position's best time is taken over.
    inputs = 1

    #: (suite, expected stream replay mode)
    TENANTS = (("paper-default", "stream-epoch"), ("write-heavy", "stream-scalar"))

    def setup(self) -> None:
        self.machine = scaled_machine(self.size.joint_scale)
        self.duration_s, self.warmup_s = self._durations(self.machine)
        self.traces = [
            suites.build(suite, self.machine, self.duration_s, seed=self.seed)
            for suite, _ in self.TENANTS
        ]
        self.prefills = [sim_prefill.warm_start_pages(trace) for trace in self.traces]

    def _open(self, registry: SessionRegistry, traces, prefills) -> List[str]:
        return [
            registry.open_session(
                "JOINT",
                prefill=prefill,
                warmup_s=self.warmup_s,
                expect_writes=trace.writes is not None,
            )
            for trace, prefill in zip(traces, prefills)
        ]

    def _serve(self, traces, prefills, duration_s, pending=None):
        """Feed both tenants in trace-time order; returns (ops, results)."""
        registry = SessionRegistry(default_machine=self.machine)
        sessions = self._open(registry, traces, prefills)
        windows = np.arange(0.0, duration_s + self.size.feed_s, self.size.feed_s)
        bounds = [np.searchsorted(trace.times, windows, side="left") for trace in traces]
        clock = time.perf_counter
        ops = []
        for k in range(windows.size - 1):
            for sid, trace, edge in zip(sessions, traces, bounds):
                lo, hi = edge[k], edge[k + 1]
                writes = None if trace.writes is None else trace.writes[lo:hi]
                start = clock()
                registry.feed(sid, trace.times[lo:hi], trace.pages[lo:hi], writes)
                ops.append(clock() - start)
                if pending is not None:
                    pending.append(registry.session_stats(sid).pending_accesses)
        results = []
        for sid in sessions:
            start = clock()
            results.append(registry.close(sid, duration_s))
            ops.append(clock() - start)
        return ops, results

    def instance(self, tracer=None) -> Instance:
        assert_cold()
        pending = [] if tracer is not None else None
        start = time.perf_counter()
        ops, results = self._serve(self.traces, self.prefills, self.duration_s, pending)
        wall = time.perf_counter() - start
        accesses = sum(trace.num_accesses for trace in self.traces)
        return Instance(wall, ops, accesses, results, pending_peak=max(pending or [0]))

    def check(self) -> List[str]:
        problems = []
        pieces = [trace.slice_time(0.0, self.size.slice_end_s) for trace in self.traces]
        prefills = [sim_prefill.warm_start_pages(piece) for piece in pieces]
        period = self.machine.manager.period_s
        _, streamed = self._serve(pieces, prefills, 2 * period)
        trace_profiles.clear_memo()
        for piece, stream in zip(pieces, streamed):
            offline = sim_runner.run_method(
                "JOINT", piece, self.machine, duration_s=2 * period, warmup_s=period
            )
            found = checks.result_diff(stream, offline)
            if found:
                problems.append(f"slice stream != offline: {found}")
            problems.extend(checks.audit_all([stream, offline], self.machine))
        trace_profiles.clear_memo()
        return problems

    def sim_metrics(self, instance: Instance) -> Dict[str, float]:
        return {
            "sim_energy_j": sum(r.total_energy_j for r in instance.results),
            "sim_long_latency_per_s": sum(r.long_latency_per_s for r in instance.results),
            "sim_disk_util": max(r.utilization for r in instance.results),
        }

    def mode_problems(self, instance: Instance) -> List[str]:
        modes = [r.replay_mode for r in instance.results]
        expected = [mode for _, mode in self.TENANTS]
        return [] if modes == expected else [f"tenant replay modes {modes}, expected {expected}"]


WORKLOADS = {cls.name: cls for cls in (SimulateJoint, CompareMethods, ServeTenants)}


#: Seed step between a run's inputs; input 0 uses the run's own seed.
SEED_STRIDE = 7919


def make(name: str, seed: int, size: Optional[Size] = None) -> Workload:
    return WORKLOADS[name](seed, size or FULL)


def make_inputs(name: str, seed: int, size: Optional[Size] = None) -> List[Workload]:
    """The run's inputs: one workload per derived seed, input 0 first."""
    cls = WORKLOADS[name]
    return [make(name, seed + SEED_STRIDE * k, size) for k in range(cls.inputs)]
