"""The benchmark suites behind ``repro bench``.

Seven suites, each emitting one JSON document:

* ``micro`` (``BENCH_micro.json``) -- data-structure and single-replay
  timings: batched stack-distance tracking, profile construction, and
  the scalar vs vectorized engine loops on one workload, including the
  ``replay_speedup`` ratio, and the power-down model's per-access vs
  batched bank accrual (``pd_accrual_speedup``).
* ``sweep`` (``BENCH_sweep.json``) -- the production shape the kernels
  were built for: a grid of (memory size x disk policy) points replaying
  the *same* trace, once through the scalar loop and once through the
  fast path with a single shared :class:`TraceProfile` (its one-time
  build is charged to the vectorized side).  ``sweep_speedup`` is the
  headline number.
* ``joint`` (``BENCH_joint.json``) -- the joint-manager fast paths: the
  epoch-segmented replay vs the scalar loop (``joint_replay_speedup``)
  and the one-pass ``ResizePredictor.predict`` vs a kept-verbatim copy
  of the old per-candidate loop on a full candidate grid
  (``end_period_speedup``).
* ``fullres`` (``BENCH_fullres.json``) -- the paper-scale pipeline: the
  chunked generate-and-replay path vs its materialized twin (wall-clock
  parity and a tracemalloc peak-memory ratio, both gated), and the
  write and disable replay kernels vs their scalar loops.  The memory
  entries use a ``scale=1`` workload so the materialized arrays
  actually dominate; everything else runs at the standard bench scale.
* ``missrun`` (``BENCH_missrun.json``) -- the miss-run kernel on a
  miss-heavy workload (a dataset four times the memory, so capacity
  misses dominate): the batched miss-run replay vs the scalar loop on
  the same method and trace, with ``miss_replay_speedup`` as the gated
  ratio.  This is the workload shape the other suites deliberately
  avoid -- their hit-dominated traces measure hit-run consumption,
  which used to leave every miss on the scalar path.
* ``fleet`` (``BENCH_fleet.json``) -- the array-level joint manager on
  a skewed multi-tenant workload: the same trace replayed through a
  striped, a partitioned and a migrating :class:`FleetEngine` layout.
  The gated ``fleet_sleep_ratio`` is sleeping disks under
  partitioned+migration over striped (the suite itself asserts >= 2x,
  with migration's transfer energy charged and service quality no
  worse); ``fleet_disk_energy_ratio`` is the resulting disk-energy win.
* ``service`` (``BENCH_service.json``) -- the streaming subsystem:
  single-tenant feed throughput (accesses/s through a
  :class:`~repro.service.streaming.StreamingManager`), concurrent
  multi-tenant throughput through a
  :class:`~repro.service.sessions.SessionRegistry`, and
  ``stream_vs_offline`` -- offline epoch replay wall-clock over
  streaming wall-clock on the same trace, the "streaming costs the same
  as offline" claim as a gated ratio.

Every entry records wall-clock seconds; throughput entries add
``ops_per_s``.  Entries with ``"kind": "ratio"`` are ratios of
wall-clocks measured in the same process and are therefore
machine-independent -- those are what the baseline gate
(:mod:`repro.perf.baseline`) checks by default.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Union

import numpy as np

from repro.cache.profile import build_profile, clear_memo
from repro.cache.stack_distance import StackDistanceTracker
from repro.config.machine import scaled_machine
from repro.errors import SimulationError
from repro.memory.system import PowerDownMemorySystem
from repro.sim.runner import run_method
from repro.traces.specweb import generate_trace
from repro.units import GB, MB

#: Bump when the document layout changes (stale baselines stop gating).
BENCH_SCHEMA = 1

SUITE_NAMES = (
    "micro", "sweep", "joint", "missrun", "service", "fullres", "fleet"
)

#: Concurrent tenant streams the service suite drives.
SERVICE_TENANTS = 8

#: Accesses per ``feed`` batch in the service suite (a realistic
#: telemetry-shipping cadence: a few hundred accesses per report).
SERVICE_BATCH = 512

#: The sweep grid: every point replays the same trace; the profile is
#: built once and shared (exactly how campaigns use the kernels).
SWEEP_SIZES_GB = (4, 8, 16, 32)
SWEEP_DISKS = ("2T", "ON", "PT", "EA")


def bench_file_name(suite: str) -> str:
    return f"BENCH_{suite}.json"


#: Least wall-clock :func:`_best_of` spends measuring one entry.
MIN_MEASURE_S = 0.25


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall-clock over at least ``repeats`` runs (noise-robust).

    Runs ``fn`` until it has both run ``repeats`` times and spent
    :data:`MIN_MEASURE_S` doing so.  A best of two 3-ms calls rests on
    whichever 6 ms of the host's speed it happened to draw; repeating a
    fast call for a fixed time gives its best a fair sample.
    """
    return _best_of_each((fn,), repeats)[0]


def _best_of_each(fns: Sequence[Callable[[], Any]], repeats: int) -> List[float]:
    """:func:`_best_of` for several functions, run in alternation.

    One round runs every function once, and rounds repeat until each has
    met :func:`_best_of`'s bar.  A ratio of two bests then compares runs
    that sampled the same stretches of the host's speed, instead of two
    measurements taken one after the other.
    """
    best = [math.inf] * len(fns)
    spent = [0.0] * len(fns)
    runs = 0
    while runs < repeats or min(spent) < MIN_MEASURE_S:
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            best[i] = min(best[i], elapsed)
            spent[i] += elapsed
        runs += 1
    return best


def _workload(quick: bool):
    """The bench workload: the bench_micro.py trace, shorter on --quick."""
    machine = scaled_machine(1024)
    trace = generate_trace(
        dataset_bytes=4 * GB,
        data_rate=100 * MB,
        duration_s=600.0 if quick else 1200.0,
        page_size=machine.page_bytes,
        seed=3,
        file_scale=machine.scale,
    )
    return machine, trace


def _time_entry(wall_s: float, ops: int, **meta: Any) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "kind": "throughput",
        "wall_s": round(wall_s, 6),
        "ops": ops,
        "ops_per_s": round(ops / wall_s, 2) if wall_s > 0 else None,
    }
    entry.update(meta)
    return entry


def _ratio_entry(value: float, note: str) -> Dict[str, Any]:
    return {
        "kind": "ratio",
        "value": round(value, 4),
        "higher_is_better": True,
        "note": note,
    }


# --- the suites ---------------------------------------------------------------


def _suite_micro(quick: bool) -> Dict[str, Any]:
    repeats = 2 if quick else 3
    entries: Dict[str, Any] = {}

    rng = np.random.default_rng(1)
    pages = rng.zipf(1.3, size=5_000 if quick else 20_000)

    def tracker_batch():
        StackDistanceTracker().access_array(pages)

    batch_wall = _best_of(tracker_batch, repeats)
    entries["stack_tracker_batch"] = _time_entry(batch_wall, int(pages.size))

    machine, trace = _workload(quick)
    profile_holder: List[Any] = []

    def profile_once():
        profile_holder.clear()
        profile_holder.append(build_profile(trace))

    wall = _best_of(profile_once, repeats)
    entries["profile_build"] = _time_entry(wall, trace.num_accesses)
    profile = profile_holder[0]

    scalar_wall = _best_of(
        lambda: run_method("2TFM-16GB", trace, machine, profile=None), repeats
    )
    entries["replay_scalar"] = _time_entry(scalar_wall, trace.num_accesses)

    vector_wall = _best_of(
        lambda: run_method("2TFM-16GB", trace, machine, profile=profile),
        repeats,
    )
    entries["replay_vectorized"] = _time_entry(vector_wall, trace.num_accesses)

    entries["replay_speedup"] = _ratio_entry(
        scalar_wall / vector_wall,
        "scalar / vectorized wall-clock, one replay, profile prebuilt",
    )

    # Power-down bank accrual: the whole trace as one run, through the
    # per-access twin and through the batched array pass.
    times, pages = trace.times, trace.pages

    def pd_loop():
        memory = PowerDownMemorySystem(machine.memory)
        charge = memory.charge_page_access
        for now, page in zip(times.tolist(), pages.tolist()):
            charge(now, page)

    def pd_batch():
        PowerDownMemorySystem(machine.memory).charge_hit_run(
            times, pages, 0, trace.num_accesses
        )

    pd_loop_wall = _best_of(pd_loop, repeats)
    entries["pd_accrual_loop"] = _time_entry(pd_loop_wall, trace.num_accesses)
    pd_batch_wall = _best_of(pd_batch, repeats)
    entries["pd_accrual_batch"] = _time_entry(
        pd_batch_wall, trace.num_accesses
    )
    entries["pd_accrual_speedup"] = _ratio_entry(
        pd_loop_wall / pd_batch_wall,
        "per-access charge_page_access loop / charge_hit_run wall-clock, "
        "power-down memory, the whole trace as one run",
    )
    return entries


def _suite_sweep(quick: bool) -> Dict[str, Any]:
    machine, trace = _workload(quick)
    methods = [
        f"{disk}FM-{size}GB" for disk in SWEEP_DISKS for size in SWEEP_SIZES_GB
    ]

    def run_all(profile_mode) -> List[float]:
        walls = []
        for method in methods:
            start = time.perf_counter()
            result = run_method(method, trace, machine, profile=profile_mode)
            walls.append(time.perf_counter() - start)
            if profile_mode is None:
                expected = "scalar"
            elif method.startswith(("2T", "ON")):
                # Request-blind policies batch their misses too.
                expected = "missrun"
            else:
                expected = "vectorized"
            if result.replay_mode != expected:
                raise SimulationError(
                    f"{method}: expected a {expected} replay, got "
                    f"{result.replay_mode}"
                )
        return walls

    clear_memo()
    scalar_walls = run_all(None)
    clear_memo()  # charge the one-time profile build to the fast side
    vector_walls = run_all("auto")

    scalar_total = sum(scalar_walls)
    vector_total = sum(vector_walls)
    points = len(methods)
    entries: Dict[str, Any] = {
        "sweep_scalar": _time_entry(
            scalar_total, points, accesses=trace.num_accesses
        ),
        "sweep_vectorized": _time_entry(
            vector_total,
            points,
            accesses=trace.num_accesses,
            profile_build_wall_s=round(vector_walls[0], 6),
        ),
        "sweep_speedup": _ratio_entry(
            scalar_total / vector_total,
            f"{points}-point (size x disk policy) sweep over one trace, "
            "shared profile built inside the timed window",
        ),
    }
    return entries


def _reference_predict(times_list, depths_list, capacities_pages, window_s,
                       period_start, period_end):
    """The pre-optimisation ``ResizePredictor.predict`` loop, verbatim.

    The old predictor stored its samples as Python lists and converted
    them to arrays on every call, then ran one boolean mask, one
    fancy-indexed copy and one list-based idle-interval extraction *per
    candidate* -- kept here as the bench reference so
    ``end_period_speedup`` measures the one-pass rewrite against the
    real cost it replaced.
    """
    from repro.cache.stack_distance import COLD

    times = np.asarray(times_list, dtype=np.float64)
    depths = np.asarray(depths_list, dtype=np.int64)
    predictions = []
    for capacity in capacities_pages:
        is_disk = (depths == COLD) | (depths >= capacity)
        disk_times = times[is_disk]
        gaps = []
        if disk_times.size:
            gaps.append(disk_times[0] - period_start)
            gaps.extend(np.diff(disk_times).tolist())
            gaps.append(period_end - disk_times[-1])
        else:
            gaps.append(period_end - period_start)
        lengths = np.asarray(
            [g for g in gaps if g >= window_s and g > 0.0], dtype=float
        )
        predictions.append((int(capacity), int(disk_times.size), lengths))
    return predictions


def _suite_joint(quick: bool) -> Dict[str, Any]:
    from repro.cache.predictor import ResizePredictor
    from repro.core.enumeration import candidate_sizes

    repeats = 2 if quick else 3
    machine, trace = _workload(quick)
    entries: Dict[str, Any] = {}

    # -- epoch-segmented replay vs the scalar loop (profile prebuilt) --
    clear_memo()
    profile = build_profile(trace)

    def run_joint(prof):
        result = run_method("JOINT", trace, machine, profile=prof)
        expected = "scalar" if prof is None else "epoch"
        if result.replay_mode != expected:
            raise SimulationError(
                f"JOINT: expected a {expected} replay, got {result.replay_mode}"
            )
        return result

    scalar_wall = _best_of(lambda: run_joint(None), repeats)
    entries["joint_replay_scalar"] = _time_entry(scalar_wall, trace.num_accesses)

    epoch_wall = _best_of(lambda: run_joint(profile), repeats)
    entries["joint_replay_epoch"] = _time_entry(epoch_wall, trace.num_accesses)

    entries["joint_replay_speedup"] = _ratio_entry(
        scalar_wall / epoch_wall,
        "scalar / epoch wall-clock, one JOINT replay, profile prebuilt",
    )

    # -- end_period enumeration: one-pass predict vs the old loop --
    # One period's worth of (time, depth) samples, exactly what the
    # manager holds when end_period fires, against the full candidate grid.
    period = machine.manager.period_s
    window = machine.manager.aggregation_window_s
    cut = int(np.searchsorted(trace.times, period, side="left"))
    times = trace.times[:cut].astype(np.float64)
    depths = profile.depths[:cut].astype(np.int64)
    pages = [size // machine.page_bytes for size in candidate_sizes(machine)]
    # The old predictor kept its samples as Python lists; the reference
    # starts from the same representation.
    times_list = times.tolist()
    depths_list = [int(d) for d in depths]

    predictor = ResizePredictor()
    predictor.record_array(times, depths)

    # Sanity: both implementations must agree before either is timed.
    fast = predictor.predict(pages, window, 0.0, period)
    ref = _reference_predict(times_list, depths_list, pages, window, 0.0, period)
    for got, (cap, num_disk, lengths) in zip(fast, ref):
        if (
            got.capacity_pages != cap
            or got.num_disk_accesses != num_disk
            or not np.array_equal(got.idle.lengths, lengths)
        ):
            raise SimulationError(
                f"predict mismatch vs reference at capacity {cap}"
            )

    # Both sides are sub-millisecond; amortise over inner iterations so
    # the ratio is stable against timer granularity.
    iters = 10 if quick else 30

    def ref_loop():
        for _ in range(iters):
            _reference_predict(
                times_list, depths_list, pages, window, 0.0, period
            )

    ref_wall = _best_of(ref_loop, repeats) / iters
    entries["end_period_reference"] = _time_entry(
        ref_wall, len(pages), samples=int(times.size)
    )

    def fast_loop():
        for _ in range(iters):
            predictor.predict(pages, window, 0.0, period)

    fast_wall = _best_of(fast_loop, repeats) / iters
    entries["end_period_fast"] = _time_entry(
        fast_wall, len(pages), samples=int(times.size)
    )

    entries["end_period_speedup"] = _ratio_entry(
        ref_wall / fast_wall,
        f"old per-candidate loop / one-pass predict, {len(pages)} candidates",
    )
    return entries


def _suite_missrun(quick: bool) -> Dict[str, Any]:
    repeats = 2 if quick else 3
    entries: Dict[str, Any] = {}

    # Miss-heavy workload: a uniform (popularity=1.0) scan over a
    # dataset sixteen times the 1 GB memory the method brings, so nearly
    # every access is a capacity miss and misses arrive in long
    # sequential runs.  The hit-dominated ``_workload`` trace the other
    # suites use would measure hit-run consumption instead.
    machine = scaled_machine(1024)
    trace = generate_trace(
        dataset_bytes=16 * GB,
        data_rate=100 * MB,
        duration_s=600.0 if quick else 1200.0,
        popularity=1.0,
        page_size=machine.page_bytes,
        seed=7,
        file_scale=machine.scale,
    )
    clear_memo()
    profile = build_profile(trace)

    def run_missheavy(prof, expected):
        result = run_method("2TFM-1GB", trace, machine, profile=prof)
        if result.replay_mode != expected:
            raise SimulationError(
                f"miss-run replay: expected {expected}, got "
                f"{result.replay_mode}"
            )
        return result

    miss_fraction = round(run_missheavy(profile, "missrun").miss_ratio, 4)

    scalar_wall = _best_of(lambda: run_missheavy(None, "scalar"), repeats)
    entries["miss_replay_scalar"] = _time_entry(
        scalar_wall, trace.num_accesses, miss_fraction=miss_fraction
    )

    fast_wall = _best_of(lambda: run_missheavy(profile, "missrun"), repeats)
    entries["miss_replay_fast"] = _time_entry(
        fast_wall, trace.num_accesses, miss_fraction=miss_fraction
    )

    entries["miss_replay_speedup"] = _ratio_entry(
        scalar_wall / fast_wall,
        "scalar / missrun-kernel wall-clock, miss-heavy trace "
        f"({miss_fraction:.0%} misses), profile prebuilt",
    )
    return entries


def _suite_service(quick: bool) -> Dict[str, Any]:
    import threading

    from repro.service.sessions import SessionRegistry
    from repro.service.streaming import StreamingManager

    repeats = 2 if quick else 3
    machine, trace = _workload(quick)
    times = trace.times
    pages = trace.pages
    n = trace.num_accesses
    period = machine.manager.period_s
    duration = max(int(np.ceil(trace.duration_s / period)), 1) * period
    entries: Dict[str, Any] = {}

    def stream_once():
        stream = StreamingManager("JOINT", machine)
        for lo in range(0, n, SERVICE_BATCH):
            hi = min(lo + SERVICE_BATCH, n)
            stream.feed(times[lo:hi], pages[lo:hi])
        return stream.close(float(duration))

    # Offline twin, profile build inside the timed window: the streaming
    # side pays its incremental Mattson pass per feed, so the fair
    # comparison charges the offline side its one-time profile build.
    def offline_once():
        clear_memo()
        return run_method(
            "JOINT", trace, machine, duration_s=float(duration), warm_start=False
        )

    # Alternated, so the gated ratio's two sides meet the same host state.
    stream_wall, offline_wall = _best_of_each((stream_once, offline_once), repeats)
    entries["stream_feed"] = _time_entry(
        stream_wall, n, batch=SERVICE_BATCH, method="JOINT"
    )
    entries["offline_epoch"] = _time_entry(offline_wall, n)

    entries["stream_vs_offline"] = _ratio_entry(
        offline_wall / stream_wall,
        "offline epoch replay / streaming feed wall-clock, same trace, "
        f"{SERVICE_BATCH}-access batches",
    )

    # Concurrent tenants: every thread streams the same trace through
    # its own registry session (GIL-bound, so this measures the session
    # layer's locking overhead, not parallel speedup).
    def tenants_once():
        registry = SessionRegistry(machine)
        errors: List[BaseException] = []

        def tenant():
            try:
                sid = registry.open_session("JOINT", machine=machine)
                for lo in range(0, n, SERVICE_BATCH):
                    hi = min(lo + SERVICE_BATCH, n)
                    registry.feed(sid, times[lo:hi], pages[lo:hi])
                registry.close(sid, float(duration))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant) for _ in range(SERVICE_TENANTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise SimulationError(f"tenant stream failed: {errors[0]}")

    tenants_wall = _best_of(tenants_once, repeats)
    entries["stream_multitenant"] = _time_entry(
        tenants_wall, n * SERVICE_TENANTS, tenants=SERVICE_TENANTS
    )
    return entries


def _memory_entry(peak_bytes: int, **meta: Any) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "kind": "memory",
        "peak_bytes": int(peak_bytes),
        "peak_mb": round(peak_bytes / (1024 * 1024), 2),
    }
    entry.update(meta)
    return entry


def _traced_peak(fn: Callable[[], Any]) -> int:
    """Peak traced allocation (bytes) while ``fn`` runs, via tracemalloc."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _suite_fullres(quick: bool) -> Dict[str, Any]:
    from repro.cache.profile import kernels_off
    from repro.sim.runner import run_chunked
    from repro.traces.specweb import generate_trace_chunked

    repeats = 2 if quick else 3
    entries: Dict[str, Any] = {}

    # The suite's workhorse: a finer machine (scale 64) and a
    # hit-dominated ~240k-access workload.  Both fast paths must run the
    # exact scalar sequence on every miss, so miss-heavy traces would
    # measure that shared cost, not the kernels; the hit runs are where
    # vectorized consumption pays.
    kernel_machine = scaled_machine(64)
    kernel_kwargs = dict(
        dataset_bytes=512 * MB,
        data_rate=100 * MB,
        duration_s=600.0 if quick else 1200.0,
        page_size=kernel_machine.page_bytes,
        seed=3,
        file_scale=kernel_machine.scale,
    )

    # -- chunked pipeline vs materialized twin: wall-clock parity ------
    # Full pipelines on both sides (generate + replay, cold start), same
    # seed, so the ratio says "chunking is free", not just "replay is".
    def materialized_pipeline():
        full = generate_trace(**kernel_kwargs)
        return run_method("2TDS-128GB", full, kernel_machine, warm_start=False)

    def chunked_pipeline():
        source = generate_trace_chunked(**kernel_kwargs)
        return run_chunked(
            "2TDS-128GB", source, kernel_machine, chunk_accesses=1 << 20
        )

    pipeline_accesses = int(generate_trace_chunked(**kernel_kwargs).num_accesses)
    # Both pipelines churn ~240k-access arrays; collect between the two
    # timed windows so one side's garbage doesn't bill the other.
    import gc

    gc.collect()
    materialized_wall = _best_of(materialized_pipeline, max(repeats, 3))
    entries["pipeline_materialized"] = _time_entry(
        materialized_wall, pipeline_accesses
    )
    gc.collect()
    chunked_wall = _best_of(chunked_pipeline, max(repeats, 3))
    entries["pipeline_chunked"] = _time_entry(chunked_wall, pipeline_accesses)
    entries["chunked_replay_parity"] = _ratio_entry(
        materialized_wall / chunked_wall,
        "materialized / chunked generate-and-replay wall-clock, same seed "
        "(~1.0: chunking must not cost throughput)",
    )

    # -- chunked pipeline vs materialized twin: peak memory ------------
    # A scale=1 workload, so the per-access arrays (not the simulator
    # state) dominate the materialized side's footprint.
    fine = scaled_machine(1)
    fine_kwargs = dict(
        dataset_bytes=256 * MB,
        data_rate=100 * MB,
        duration_s=30.0 if quick else 120.0,
        page_size=fine.page_bytes,
        seed=11,
        file_scale=fine.scale,
    )

    def materialized_fine():
        full = generate_trace(**fine_kwargs)
        return run_method("2TDS-128GB", full, fine, warm_start=False)

    def chunked_fine():
        source = generate_trace_chunked(**fine_kwargs)
        return run_chunked("2TDS-128GB", source, fine, chunk_accesses=1 << 16)

    fine_accesses = int(generate_trace_chunked(**fine_kwargs).num_accesses)
    materialized_peak = _traced_peak(materialized_fine)
    entries["pipeline_peak_materialized"] = _memory_entry(
        materialized_peak, scale=1, accesses=fine_accesses
    )
    chunked_peak = _traced_peak(chunked_fine)
    entries["pipeline_peak_chunked"] = _memory_entry(
        chunked_peak, scale=1, accesses=fine_accesses
    )
    entries["chunked_memory_ratio"] = _ratio_entry(
        materialized_peak / chunked_peak,
        "materialized / chunked pipeline peak tracemalloc bytes, scale=1 "
        "(the chunked side must stay bounded by the chunk, not the trace)",
    )

    # -- write-replay kernel vs the scalar loop ------------------------
    # Lightly written (3%): the writes kernel replays each write exactly
    # and vectorizes the read runs between them.
    writeful = generate_trace(write_fraction=0.03, **kernel_kwargs)
    clear_memo()
    write_profile = build_profile(writeful)

    def run_writes(prof):
        result = run_method("2TFM-16GB", writeful, kernel_machine, profile=prof)
        expected = "scalar" if prof is None else "writes"
        if result.replay_mode != expected:
            raise SimulationError(
                f"write replay: expected {expected}, got {result.replay_mode}"
            )
        return result

    write_scalar = _best_of(lambda: run_writes(None), repeats)
    entries["write_replay_scalar"] = _time_entry(
        write_scalar, writeful.num_accesses
    )
    write_fast = _best_of(lambda: run_writes(write_profile), repeats)
    entries["write_replay_fast"] = _time_entry(
        write_fast, writeful.num_accesses
    )
    entries["write_replay_speedup"] = _ratio_entry(
        write_scalar / write_fast,
        "scalar / writes-kernel wall-clock, 3%-write trace, "
        "profile prebuilt",
    )

    # -- disable-model replay vs the scalar loop -----------------------
    # The disable fast path needs no profile (it replays from live bank
    # state); only the $REPRO_KERNELS kill switch forces it scalar.
    readful = generate_trace(**kernel_kwargs)

    def run_disable(expected):
        result = run_method(
            "2TDS-128GB", readful, kernel_machine, warm_start=False
        )
        if result.replay_mode != expected:
            raise SimulationError(
                f"disable replay: expected {expected}, got {result.replay_mode}"
            )
        return result

    with kernels_off():
        disable_scalar = _best_of(lambda: run_disable("scalar"), repeats)
    entries["disable_replay_scalar"] = _time_entry(
        disable_scalar, readful.num_accesses
    )
    disable_fast = _best_of(lambda: run_disable("disable"), repeats)
    entries["disable_replay_fast"] = _time_entry(
        disable_fast, readful.num_accesses
    )
    entries["disable_replay_speedup"] = _ratio_entry(
        disable_scalar / disable_fast,
        "scalar ($REPRO_KERNELS=0) / disable-kernel wall-clock, "
        "live-bank fast path",
    )
    return entries


def _suite_fleet(quick: bool) -> Dict[str, Any]:
    from repro.fleet.engine import FleetEngine
    from repro.fleet.layout import (
        MigratingLayout,
        PartitionedLayout,
        StripedLayout,
    )
    from repro.memory.system import NapMemorySystem
    from repro.policies.pareto_timeout import ParetoTimeoutPolicy
    from repro.traces.trace import Trace

    machine = scaled_machine(1024)
    period = machine.manager.period_s
    periods = 4 if quick else 8
    duration = periods * period
    disks = 4
    span = 400  # pages; the base partition is 100 pages per disk
    # Skewed multi-tenant shape: a first-period cold scan touches the
    # whole span, then three tenants hammer narrow hot bands that start
    # scattered across the array -- one per non-zero spindle.  Striping
    # spreads every band over all four disks; migration packs the 60-page
    # hot set onto disk 0 after one popularity period.
    rng = np.random.default_rng(23)
    cold_n = 300 if quick else 600
    hot_n = 900 if quick else 2400
    bands = ((110, 130), (210, 230), (310, 330))
    cold_pages = rng.integers(0, span, size=cold_n)
    cold_times = np.sort(rng.uniform(0.0, period * 0.95, size=cold_n))
    hot_pages = np.concatenate(
        [rng.integers(lo, hi, size=hot_n // len(bands)) for lo, hi in bands]
    )
    rng.shuffle(hot_pages)  # interleave the tenants' accesses in time
    hot_times = np.sort(
        rng.uniform(period, duration * 0.95, size=hot_pages.size)
    )
    trace = Trace(
        times=np.concatenate([cold_times, hot_times]),
        pages=np.concatenate([cold_pages, hot_pages]).astype(np.int64),
        page_size=machine.page_bytes,
    )

    def run_layout(layout):
        # Memory far below the hot set (32 pages vs 60), so the hot
        # phase keeps missing and the layouts differ in which spindles
        # that wakes -- the regime where placement decides sleep.
        engine = FleetEngine(
            machine,
            NapMemorySystem(machine.memory, 128 * MB),
            layout,
            policy_factory=lambda: ParetoTimeoutPolicy(
                machine.disk.break_even_time_s,
                aggregation_window_s=machine.manager.aggregation_window_s,
            ),
        )
        start = time.perf_counter()
        result = engine.run(trace, duration_s=float(duration))
        return result, time.perf_counter() - start

    striped, striped_wall = run_layout(StripedLayout(disks, extent_pages=4))
    partitioned, part_wall = run_layout(
        PartitionedLayout(disks, pages_per_disk=span // disks)
    )
    migrating, migr_wall = run_layout(
        MigratingLayout(disks, pages_per_disk=span // disks)
    )

    # The headline claim, asserted here (not just gated): migration's
    # transfer energy is really charged, service quality is no worse,
    # and partitioned+migration still sleeps >= 2x the disks striping does.
    if migrating.pages_migrated <= 0 or migrating.migration_energy_j <= 0.0:
        raise SimulationError(
            "fleet suite: the migrating layout moved no pages "
            f"({migrating.pages_migrated} migrated, "
            f"{migrating.migration_energy_j} J)"
        )
    if migrating.long_latency > striped.long_latency:
        raise SimulationError(
            "fleet suite: migration degraded service quality "
            f"({migrating.long_latency} long latencies vs "
            f"{striped.long_latency} striped)"
        )
    sleep_ratio = migrating.sleeping_disks / max(striped.sleeping_disks, 1)
    if sleep_ratio < 2.0:
        raise SimulationError(
            "fleet suite: migration slept "
            f"{migrating.sleeping_disks}/{disks} disk(s) vs "
            f"{striped.sleeping_disks} striped -- below the 2x claim"
        )

    def layout_entry(result, wall):
        return _time_entry(
            wall,
            trace.num_accesses,
            sleeping_disks=result.sleeping_disks,
            disk_energy_j=round(result.disk_energy_j, 1),
            long_latency=result.long_latency,
        )

    return {
        "fleet_striped": layout_entry(striped, striped_wall),
        "fleet_partitioned": layout_entry(partitioned, part_wall),
        "fleet_migrating": {
            **layout_entry(migrating, migr_wall),
            "pages_migrated": migrating.pages_migrated,
            "migration_energy_j": round(migrating.migration_energy_j, 1),
        },
        "fleet_sleep_ratio": _ratio_entry(
            sleep_ratio,
            f"sleeping disks, partitioned+migration / striped, {disks}-disk "
            "array on a skewed multi-tenant trace (migration energy charged)",
        ),
        "fleet_disk_energy_ratio": _ratio_entry(
            striped.disk_energy_j / migrating.disk_energy_j,
            "striped / migrating disk energy, same trace and policy "
            "(includes the migration transfer charge)",
        ),
    }


_SUITES: Dict[str, Callable[[bool], Dict[str, Any]]] = {
    "micro": _suite_micro,
    "sweep": _suite_sweep,
    "joint": _suite_joint,
    "missrun": _suite_missrun,
    "service": _suite_service,
    "fullres": _suite_fullres,
    "fleet": _suite_fleet,
}


# --- entry points -------------------------------------------------------------


def run_suite(suite: str, quick: bool = False) -> Dict[str, Any]:
    """Run one suite and return its JSON document."""
    if suite not in _SUITES:
        raise SimulationError(
            f"unknown bench suite {suite!r}; available: {', '.join(SUITE_NAMES)}"
        )
    start = time.perf_counter()
    entries = _SUITES[suite](quick)
    return {
        "suite": suite,
        "schema": BENCH_SCHEMA,
        "quick": bool(quick),
        "elapsed_s": round(time.perf_counter() - start, 3),
        "entries": entries,
    }


def write_suite(doc: Dict[str, Any], out_dir: Union[str, Path]) -> Path:
    """Write ``BENCH_<suite>.json`` under ``out_dir``; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / bench_file_name(doc["suite"])
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def render_suite(doc: Dict[str, Any]) -> str:
    """Human-readable one-line-per-entry summary."""
    lines = [
        f"suite {doc['suite']}"
        + (" (quick)" if doc.get("quick") else "")
        + f": {doc.get('elapsed_s', 0.0):.2f} s"
    ]
    for name, entry in sorted(doc["entries"].items()):
        if entry.get("kind") == "ratio":
            lines.append(f"  {name:<22} {entry['value']:.2f}x")
        elif entry.get("kind") == "memory":
            lines.append(f"  {name:<22} {entry['peak_mb']:.1f} MB peak")
        else:
            ops = entry.get("ops_per_s")
            rate = f"{ops:,.0f} ops/s" if ops else ""
            lines.append(
                f"  {name:<22} {entry['wall_s']:.4f} s  {rate}".rstrip()
            )
    return "\n".join(lines)
