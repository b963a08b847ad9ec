"""Run one named method on one trace."""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.cache.profile import TraceProfile, get_profile, kernels_enabled
from repro.config.machine import MachineConfig
from repro.core.joint import JointPowerManager
from repro.errors import SimulationError
from repro.memory.system import supports_profiled_replay
from repro.policies.base import DiskPolicy
from repro.policies.registry import MethodSpec, parse_method
from repro.sim.engine import SimulationEngine
from repro.sim.prefill import warm_start_pages
from repro.sim.results import SimResult
from repro.traces.chunked import DEFAULT_CHUNK_ACCESSES
from repro.traces.trace import Trace


def run_method(
    method: Union[str, MethodSpec],
    trace: Trace,
    machine: MachineConfig,
    duration_s: Optional[float] = None,
    warmup_s: float = 0.0,
    warm_start: bool = True,
    audit: bool = False,
    profile: Union[str, TraceProfile, None] = "auto",
    regret: bool = False,
) -> SimResult:
    """Simulate ``method`` (a paper-style name or a spec) on ``trace``.

    ``warm_start`` prefills each cache with the trace's reused pages,
    emulating the long-running server the paper collects traces from
    (see :mod:`repro.sim.prefill`).  ``audit=True`` verifies the run's
    conservation invariants (:mod:`repro.sim.audit`) before returning.
    ``regret=True`` additionally scores the finished run against the
    offline oracles (:mod:`repro.analysis.regret`) and fills in
    :attr:`SimResult.regret`; it requires ``warmup_s == 0`` and a
    read-only trace.

    ``profile`` controls the vectorized replay kernels: ``"auto"`` (the
    default) computes or recalls a :class:`TraceProfile` when the run is
    eligible for the fast path, ``None`` forces the scalar loop, and an
    explicit :class:`TraceProfile` is passed straight to the engine.
    Either way the numbers are bit-identical; only wall-clock changes.

    Oracle-disk methods run two passes: the first (always-on) collects the
    miss times the oracle needs as its future knowledge; the memory
    configuration, and hence the miss stream, is identical in both passes.
    """
    spec = parse_method(method) if isinstance(method, str) else method
    prefill = warm_start_pages(trace) if warm_start else []
    engine = build_engine(spec, machine, prefill)
    run_profile = _resolve_profile(
        profile, trace, warm_start, engine.memory, joint=spec.is_joint
    )
    if spec.disk == "OR":
        engine.idle_hints = _collect_miss_times(
            spec, trace, machine, duration_s, prefill, run_profile
        )
    return _finish(
        engine.run(trace, duration_s, warmup_s=warmup_s, profile=run_profile),
        machine,
        audit,
        trace=trace,
        warm_start=warm_start,
        regret=regret,
    )


def build_engine(
    spec: MethodSpec,
    machine: MachineConfig,
    prefill: Sequence[int] = (),
    disk_policy: Optional[DiskPolicy] = None,
    label: Optional[str] = None,
) -> SimulationEngine:
    """The engine that replays ``spec``, its caches warmed by ``prefill``.

    A joint spec gets its :class:`JointPowerManager` and a memory resized
    to the manager's initial size; any other spec gets its disk policy
    (or ``disk_policy``, when given) and its fixed memory.  ``prefill``
    (coldest first) seeds the memory, and a joint manager's tracker too.
    The engine is labelled ``label`` or the spec's label.
    """
    label = spec.label if label is None else label
    if spec.is_joint:
        manager = JointPowerManager(
            machine,
            enforce_constraints=spec.enforce_constraints,
            adapt_memory=spec.adapt_memory,
            adapt_timeout=spec.adapt_timeout,
        )
        memory = spec.build_memory_system(machine)
        memory.resize(0.0, manager.memory_bytes)
        if prefill:
            memory.prefill(prefill)
            # The tracker sees the full warm history: pages beyond the
            # resident tail become ghost entries, exactly as a long-running
            # extended LRU list would hold them.
            manager.prefill(prefill)
        return SimulationEngine(
            machine, memory, joint_manager=manager, label=label
        )
    if disk_policy is None:
        disk_policy = spec.build_disk_policy(machine)
    memory = spec.build_memory_system(machine)
    memory.prefill(prefill)
    return SimulationEngine(machine, memory, disk_policy=disk_policy, label=label)


def run_chunked(
    method: Union[str, MethodSpec],
    source,
    machine: MachineConfig,
    duration_s: Optional[float] = None,
    warmup_s: float = 0.0,
    prefill: Optional[list] = None,
    label: Optional[str] = None,
    chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
) -> SimResult:
    """Replay a :class:`~repro.traces.chunked.ChunkedTrace` chunk by chunk.

    Drives the chunks through a
    :class:`~repro.service.streaming.StreamingManager`, so the run
    inherits the streaming layer's bit-exactness contract: the result is
    identical to ``run_method`` on the materialized trace with the same
    ``prefill`` and duration -- but peak memory is bounded by
    ``chunk_accesses`` plus the streaming buffer (one epoch of pending
    accesses), never the full trace.  The default duration rounds the
    last access up to a whole number of periods, exactly as
    ``engine.run`` does.  An explicit duration drops the accesses at or
    past it, as the engine's walk does, and stops reading the source at
    the first of them.

    ``prefill`` seeds the caches (``run_method``'s ``warm_start`` needs
    the full trace to compute its prefill, so chunked runs default to a
    cold start; pass :func:`repro.sim.prefill.warm_start_pages` of a
    materialized twin when warm parity is wanted).
    """
    from repro.service.streaming import StreamingManager

    stream = StreamingManager(
        method,
        machine,
        prefill=prefill,
        warmup_s=warmup_s,
        expect_writes=bool(getattr(source, "has_writes", False)),
        label=label,
    )
    for chunk in source.chunks(chunk_accesses):
        n = chunk.times.size
        if duration_s is not None:
            n = int(np.searchsorted(chunk.times, duration_s, side="left"))
        writes = None if chunk.writes is None else chunk.writes[:n]
        stream.feed(chunk.times[:n], chunk.pages[:n], writes)
        if n < chunk.times.size:
            break  # the source is time-ordered: nothing later counts
    return stream.close(duration_s)


def _resolve_profile(
    profile: Union[str, TraceProfile, None],
    trace: Trace,
    warm_start: bool,
    memory,
    joint: bool = False,
) -> Optional[TraceProfile]:
    """The profile to hand the engine, or None for the scalar loop.

    ``"auto"`` skips the (one-pass, but O(trace)) profile build whenever
    the run would fall back anyway, and honours the ``$REPRO_KERNELS``
    kill switch.  The disable model never needs a profile (its fast
    mode replays from live bank state), and joint write-back runs stay
    scalar, so neither triggers a build.
    """
    if profile is None:
        return None
    if isinstance(profile, TraceProfile):
        return profile
    if profile != "auto":
        raise SimulationError(
            "profile must be 'auto', None or a TraceProfile"
        )
    if not kernels_enabled():
        return None
    if not supports_profiled_replay(memory):
        return None
    if joint and trace.writes is not None and bool(trace.writes.any()):
        return None
    return get_profile(trace, warm_start=warm_start)


def _finish(
    result: SimResult,
    machine: MachineConfig,
    audit: bool,
    trace: Optional[Trace] = None,
    warm_start: bool = True,
    regret: bool = False,
) -> SimResult:
    if audit:
        from repro.sim.audit import assert_clean

        assert_clean(result, machine)
    if regret:
        from repro.analysis.regret import attach_regret

        result = attach_regret(result, trace, machine, warm_start=warm_start)
    return result


def _collect_miss_times(
    spec: MethodSpec,
    trace: Trace,
    machine: MachineConfig,
    duration_s: Optional[float],
    prefill,
    run_profile: Optional[TraceProfile] = None,
) -> np.ndarray:
    """First pass for the oracle: the miss arrival times of this memory config.

    The miss stream depends only on the memory configuration, not on the
    disk policy, so an always-on pass observes exactly the arrivals the
    oracle-managed disk will see.
    """
    from repro.policies.always_on import AlwaysOnPolicy

    engine = build_engine(
        spec,
        machine,
        prefill,
        disk_policy=AlwaysOnPolicy(),
        label=f"{spec.label}-pass1",
    )
    miss_times = []
    real_submit = engine.disk.submit

    def recording_submit(now, num_pages, sequential=False, page=None):
        miss_times.append(now)
        return real_submit(now, num_pages, sequential=sequential, page=page)

    # The instance-level patch also opts this run out of the miss-run
    # kernel: kernels._batchable_disk sees "submit" in the disk's
    # __dict__ and demotes to the vectorized path, so every miss still
    # flows through recording_submit one call at a time.
    engine.disk.submit = recording_submit  # type: ignore[method-assign]
    engine.run(trace, duration_s, profile=run_profile)
    return np.asarray(miss_times, dtype=float)
