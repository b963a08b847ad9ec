"""The campaign executor: fan tasks out, cache, journal, retry, report.

``run_campaign`` takes any list of campaign tasks (:mod:`repro.campaign.tasks`)
and resolves each one, in order of preference:

1. the run journal of the run being resumed (``resume=RUN_ID``),
2. the content-addressed result cache,
3. execution -- on a ``ProcessPoolExecutor`` with ``jobs`` workers, or
   serially in-process when ``jobs <= 1`` (graceful degradation, and the
   path used by tests that monkeypatch task internals).

Identical task keys within one campaign execute once and fan the result
out.  Worker crashes (``BrokenProcessPool``) and in-task exceptions are
retried with exponential backoff up to ``retries`` times; what still
fails is recorded per-task and surfaces in ``CampaignReport.ok`` rather
than aborting the rest of the campaign.

Telemetry -- per-task wall-clock (measured inside the worker), cache
hit/miss counters, worker utilization -- is returned on the report,
rendered by ``render_summary()`` and written as ``campaign.json`` next to
the journal.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import CampaignError

from repro.cache import profile as trace_profiles
from repro.campaign.cache import NullCache, ResultCache
from repro.campaign.hashing import code_fingerprint, digest
from repro.campaign.journal import SUMMARY_NAME, RunJournal, completed_payloads
from repro.campaign.tasks import (
    Task,
    sharing_traces,
    start_sharing_traces,
    timed_execute,
)

#: How a task's result was obtained.
SOURCE_EXECUTED = "executed"
SOURCE_CACHE = "cache"
SOURCE_JOURNAL = "journal"
SOURCE_DEDUP = "dedup"


@dataclass
class TaskRecord:
    """One input task's outcome, aligned with the input task list."""

    index: int
    key: str
    kind: str
    label: str
    payload: Optional[Dict[str, Any]] = None
    source: str = SOURCE_EXECUTED
    wall_s: float = 0.0
    attempts: int = 0
    error: Optional[str] = None

    @property
    def cached(self) -> bool:
        return self.source in (SOURCE_CACHE, SOURCE_JOURNAL, SOURCE_DEDUP)

    @property
    def ok(self) -> bool:
        return self.payload is not None


@dataclass
class CampaignStats:
    """Run telemetry: counters, wall-clock, worker utilization."""

    tasks: int = 0
    unique: int = 0
    executed: int = 0
    cache_hits: int = 0
    journal_hits: int = 0
    dedup_hits: int = 0
    failures: int = 0
    retries: int = 0
    jobs: int = 1
    elapsed_s: float = 0.0
    busy_s: float = 0.0
    #: Traces built by the tasks executed in this process (serial runs;
    #: None when a pool executed them).
    trace_builds: Optional[int] = None

    @property
    def hits(self) -> int:
        return self.cache_hits + self.journal_hits + self.dedup_hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.tasks if self.tasks else 0.0

    @property
    def speedup(self) -> float:
        """Aggregate task time over elapsed time: >1 means parallel won."""
        return self.busy_s / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def utilization(self) -> float:
        denom = self.jobs * self.elapsed_s
        return self.busy_s / denom if denom > 0 else 0.0


@dataclass
class CampaignReport:
    """Everything one ``run_campaign`` invocation produced."""

    run_id: str
    records: List[TaskRecord] = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)
    run_dir: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    def payloads(self) -> List[Optional[Dict[str, Any]]]:
        return [record.payload for record in self.records]

    def failures(self) -> List[TaskRecord]:
        return [record for record in self.records if not record.ok]

    def replay_mode_counts(self) -> Dict[str, int]:
        """Replay-loop usage across the campaign's sim payloads.

        Counts every resolved sim-kind and fleet-shard record (cached
        payloads included) by the ``replay_mode`` its summary recorded;
        payloads cached before the field existed count as ``"scalar"``,
        and multi-disk fleet shards (no single replay loop) count as
        ``"multidisk"``.  A surprise ``"scalar"`` majority on an
        eligible workload usually means the fast paths are being
        skipped (kill switch, missing profiles).
        """
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.payload is None:
                continue
            kind = record.payload.get("kind")
            if kind not in ("sim", "fleet-shard"):
                continue
            if kind == "fleet-shard" and "summary" not in record.payload:
                mode = "multidisk"
            else:
                summary = record.payload.get("summary") or {}
                mode = str(summary.get("replay_mode", "scalar"))
            counts[mode] = counts.get(mode, 0) + 1
        return dict(sorted(counts.items()))

    def fleet_summary(self) -> Optional[Dict[str, Any]]:
        """Aggregate fleet-shard telemetry: shard tasks, migration stats.

        None when the campaign resolved no fleet-shard records (the
        common case: experiment campaigns carry only sim tasks).
        """
        shard_tasks = 0
        tenants = 0
        pages_migrated = 0
        migration_energy_j = 0.0
        for record in self.records:
            payload = record.payload
            if payload is None or payload.get("kind") != "fleet-shard":
                continue
            shard_tasks += 1
            tenants += int(payload.get("tenants") or 0)
            fleet = payload.get("fleet") or {}
            pages_migrated += int(fleet.get("pages_migrated") or 0)
            migration_energy_j += float(fleet.get("migration_energy_j") or 0.0)
        if not shard_tasks:
            return None
        return {
            "shard_tasks": shard_tasks,
            "tenants": tenants,
            "pages_migrated": pages_migrated,
            "migration_energy_j": round(migration_energy_j, 6),
        }

    def regret_summary(self) -> Optional[Dict[str, Any]]:
        """Aggregate offline-optimality regret across sim payloads.

        None when no resolved sim record carried regret fields (the
        common case: regret scoring is opt-in per :class:`SimTask`).
        """
        ratios: List[float] = []
        excess = 0
        for record in self.records:
            if record.payload is None or record.payload.get("kind") != "sim":
                continue
            summary = record.payload.get("summary") or {}
            ratio = summary.get("energy_ratio")
            if ratio is None:
                continue
            ratios.append(float(ratio))
            excess += int(summary.get("excess_misses") or 0)
        if not ratios:
            return None
        return {
            "runs": len(ratios),
            "mean_energy_ratio": round(sum(ratios) / len(ratios), 4),
            "max_energy_ratio": round(max(ratios), 4),
            "excess_misses": excess,
        }

    def telemetry(self) -> Dict[str, Any]:
        s = self.stats
        return {
            "run_id": self.run_id,
            "code_fingerprint": code_fingerprint(),
            "jobs": s.jobs,
            "tasks": s.tasks,
            "unique_tasks": s.unique,
            "executed": s.executed,
            "cache_hits": s.cache_hits,
            "journal_hits": s.journal_hits,
            "dedup_hits": s.dedup_hits,
            "hits": s.hits,
            "hit_ratio": round(s.hit_ratio, 4),
            "failures": s.failures,
            "retries": s.retries,
            "elapsed_s": round(s.elapsed_s, 6),
            "busy_s": round(s.busy_s, 6),
            "trace_builds": s.trace_builds,
            "speedup": round(s.speedup, 4),
            "worker_utilization": round(s.utilization, 4),
            "replay_modes": self.replay_mode_counts(),
            "regret": self.regret_summary(),
            "fleet": self.fleet_summary(),
            "tasks_detail": [
                {
                    "index": r.index,
                    "key": r.key,
                    "kind": r.kind,
                    "label": r.label,
                    "source": r.source,
                    "wall_s": round(r.wall_s, 6),
                    "attempts": r.attempts,
                    "error": r.error,
                }
                for r in self.records
            ],
        }

    def render_summary(self) -> str:
        s = self.stats
        lines = [
            f"campaign {self.run_id}: {s.tasks} task(s), "
            f"{s.unique} unique, jobs={s.jobs}",
            f"  executed      {s.executed}",
            f"  cache hits    {s.cache_hits}",
            f"  journal hits  {s.journal_hits}",
            f"  dedup hits    {s.dedup_hits}",
            f"  hit ratio     {s.hit_ratio:.1%}",
            f"  failures      {s.failures}",
            f"  retries       {s.retries}",
            f"  wall clock    {s.elapsed_s:.2f} s "
            f"(task time {s.busy_s:.2f} s, speedup {s.speedup:.2f}x, "
            f"worker utilization {s.utilization:.1%})",
        ]
        modes = self.replay_mode_counts()
        if modes:
            detail = " ".join(f"{k}={v}" for k, v in modes.items())
            lines.append(f"  replay modes  {detail}")
        fleet = self.fleet_summary()
        if fleet is not None:
            lines.append(
                f"  fleet         {fleet['shard_tasks']} shard task(s), "
                f"{fleet['tenants']} tenant(s), "
                f"{fleet['pages_migrated']} page(s) migrated "
                f"({fleet['migration_energy_j']:.1f} J)"
            )
        regret = self.regret_summary()
        if regret is not None:
            lines.append(
                f"  regret        {regret['runs']} run(s), energy ratio "
                f"mean {regret['mean_energy_ratio']:.3f} max "
                f"{regret['max_energy_ratio']:.3f}, excess misses "
                f"{regret['excess_misses']}"
            )
        if self.run_dir is not None:
            lines.append(f"  run dir       {self.run_dir}")
        return "\n".join(lines)


# --- executor ----------------------------------------------------------------


def _make_run_id(keys: Sequence[str]) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{digest(list(keys))[:8]}"


def run_campaign(
    tasks: Sequence[Task],
    *,
    jobs: int = 1,
    cache: Optional[Union[ResultCache, NullCache]] = None,
    runs_root: Optional[Union[str, Path]] = None,
    run_id: Optional[str] = None,
    resume: Optional[str] = None,
    retries: int = 2,
    backoff_s: float = 0.25,
    on_progress: Optional[Callable[[TaskRecord, int, int], None]] = None,
) -> CampaignReport:
    """Resolve every task; return payloads aligned with ``tasks``.

    ``cache=None`` disables the result cache.  ``runs_root`` (defaulting
    to ``<cache root>/runs`` when a disk cache is used) is where journals
    and ``campaign.json`` live; without it the run is journal-less and
    cannot be resumed.  ``resume`` names an earlier run id under
    ``runs_root`` whose completed tasks are reused verbatim.
    """
    if jobs < 1:
        raise CampaignError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise CampaignError(f"retries must be >= 0, got {retries}")
    cache = cache if cache is not None else NullCache()
    if runs_root is None and getattr(cache, "root", None) is not None:
        runs_root = cache.root / "runs"

    start = time.monotonic()
    tasks = list(tasks)
    keys = [task.key for task in tasks]
    records = [
        TaskRecord(index=i, key=key, kind=task.kind, label=task.describe())
        for i, (task, key) in enumerate(zip(tasks, keys))
    ]
    stats = CampaignStats(
        tasks=len(tasks), jobs=jobs, retries=0,
        trace_builds=0 if jobs <= 1 else None,
    )

    # Unique keys, first occurrence wins; later duplicates are dedup hits.
    first_index: Dict[str, int] = {}
    for i, key in enumerate(keys):
        first_index.setdefault(key, i)
    stats.unique = len(first_index)

    if resume is not None:
        if runs_root is None:
            raise CampaignError(
                "resume requires a runs directory (enable the cache or "
                "pass runs_root)"
            )
        run_id = resume
    elif run_id is None:
        run_id = _make_run_id(keys)

    run_dir: Optional[Path] = None
    journal: Optional[RunJournal] = None
    if runs_root is not None:
        run_dir = Path(runs_root) / run_id
        if resume is not None:
            # Raises CampaignError when the journal does not exist.
            journal_payloads = completed_payloads(run_dir)
        else:
            journal_payloads = {}
        journal = RunJournal(run_dir)
    else:
        journal_payloads = {}

    resolved: Dict[str, Dict[str, Any]] = {}
    source_of: Dict[str, str] = {}
    wall_of: Dict[str, float] = {}
    attempts_of: Dict[str, int] = {}
    errors: Dict[str, str] = {}
    done_count = 0

    def note(record: TaskRecord) -> None:
        nonlocal done_count
        done_count += 1
        if on_progress is not None:
            on_progress(record, done_count, stats.unique)

    def finish_key(key: str, payload: Dict[str, Any], source: str,
                   wall: float = 0.0, attempts: int = 0) -> None:
        resolved[key] = payload
        source_of[key] = source
        wall_of[key] = wall
        attempts_of[key] = attempts
        rep = records[first_index[key]]
        rep.payload = payload
        rep.source = source
        rep.wall_s = wall
        rep.attempts = attempts
        if journal is not None:
            journal.append(
                "task_done",
                key=key,
                kind=rep.kind,
                label=rep.label,
                source=source,
                wall_s=wall,
                attempts=attempts,
                payload=payload,
            )
        if source == SOURCE_EXECUTED:
            cache.put(key, payload)
        note(rep)

    def fail_key(key: str, error: str, attempts: int) -> None:
        errors[key] = error
        attempts_of[key] = attempts
        rep = records[first_index[key]]
        rep.error = error
        rep.attempts = attempts
        if journal is not None:
            journal.append(
                "task_failed",
                key=key,
                kind=rep.kind,
                label=rep.label,
                attempts=attempts,
                error=error,
            )
        note(rep)

    if journal is not None:
        journal.append(
            "run_started",
            run_id=run_id,
            tasks=len(tasks),
            unique=stats.unique,
            jobs=jobs,
            resumed_from=resume,
            code_fingerprint=code_fingerprint(),
        )

    # 1/2: resolve from the resumed journal, then the cache.
    for key in first_index:
        if key in journal_payloads:
            stats.journal_hits += 1
            finish_key(key, journal_payloads[key], SOURCE_JOURNAL)
    for key in first_index:
        if key in resolved:
            continue
        hit = cache.get(key)
        if hit is not None:
            stats.cache_hits += 1
            finish_key(key, hit, SOURCE_CACHE)

    # 3: execute what is left.  While tasks run, point the trace-profile
    # layer at the campaign's result cache so every sweep point, method
    # and later resumed run shares one stack-distance pass per trace,
    # and let the tasks of one workload share its built trace.
    todo = [key for key in first_index if key not in resolved]
    if todo:
        previous_backend = _install_profile_cache(cache)
        try:
            if jobs <= 1:
                with sharing_traces() as shared:
                    _execute_serial(
                        todo, tasks, first_index, retries, backoff_s,
                        finish_key, fail_key, stats,
                    )
                stats.trace_builds = shared.builds
            else:
                _execute_parallel(
                    todo, tasks, first_index, jobs, retries, backoff_s,
                    finish_key, fail_key, stats,
                    profile_cache_root=getattr(cache, "root", None),
                )
        finally:
            trace_profiles.set_active_cache(previous_backend)

    # Fan results out to duplicate tasks.
    for i, key in enumerate(keys):
        if i == first_index[key]:
            continue
        record = records[i]
        if key in resolved:
            record.payload = resolved[key]
            record.source = SOURCE_DEDUP
            stats.dedup_hits += 1
        else:
            record.error = errors.get(key, "task failed")
            record.attempts = attempts_of.get(key, 0)

    stats.executed = sum(
        1 for key in first_index if source_of.get(key) == SOURCE_EXECUTED
    )
    stats.failures = sum(1 for record in records if not record.ok)
    stats.busy_s = sum(wall_of.values())
    stats.elapsed_s = time.monotonic() - start

    report = CampaignReport(
        run_id=run_id, records=records, stats=stats, run_dir=run_dir
    )
    if journal is not None:
        journal.append(
            "run_finished",
            run_id=run_id,
            executed=stats.executed,
            cache_hits=stats.cache_hits,
            journal_hits=stats.journal_hits,
            dedup_hits=stats.dedup_hits,
            failures=stats.failures,
            elapsed_s=stats.elapsed_s,
        )
        journal.close()
    if run_dir is not None:
        import json

        summary_path = run_dir / SUMMARY_NAME
        summary_path.write_text(
            json.dumps(report.telemetry(), indent=2) + "\n", encoding="utf-8"
        )
    return report


def _install_profile_cache(cache) -> Any:
    """Make the campaign's disk cache the profile backend; returns the
    previous backend (unchanged when the cache is memory-less)."""
    if getattr(cache, "root", None) is None:
        return trace_profiles.active_cache()
    return trace_profiles.set_active_cache(cache)


def _pool_initializer(cache_root: Optional[str]) -> None:
    """Worker-process bootstrap: share the profile cache across the pool,
    and built traces between the tasks of this worker."""
    start_sharing_traces()
    if cache_root:
        trace_profiles.set_active_cache(cache_root)


def _execute_serial(
    todo: List[str],
    tasks: Sequence[Task],
    first_index: Dict[str, int],
    retries: int,
    backoff_s: float,
    finish_key: Callable[..., None],
    fail_key: Callable[..., None],
    stats: CampaignStats,
) -> None:
    for key in todo:
        task = tasks[first_index[key]]
        attempt = 0
        while True:
            attempt += 1
            try:
                payload, wall = timed_execute(task)
            except Exception as exc:  # noqa: BLE001 - per-task isolation
                if attempt > retries:
                    fail_key(key, f"{type(exc).__name__}: {exc}", attempt)
                    break
                stats.retries += 1
                time.sleep(backoff_s * (2 ** (attempt - 1)))
                continue
            finish_key(key, payload, SOURCE_EXECUTED, wall, attempt)
            break


def _execute_parallel(
    todo: List[str],
    tasks: Sequence[Task],
    first_index: Dict[str, int],
    jobs: int,
    retries: int,
    backoff_s: float,
    finish_key: Callable[..., None],
    fail_key: Callable[..., None],
    stats: CampaignStats,
    profile_cache_root: Optional[Path] = None,
) -> None:
    """Pool execution with per-task retry and pool-crash recovery.

    A ``BrokenProcessPool`` kills every in-flight future; the whole batch
    is resubmitted on a fresh pool, each casualty costing one attempt.
    ``retries`` therefore bounds both in-task exceptions and crash
    collateral.
    """
    attempts: Dict[str, int] = {key: 0 for key in todo}
    batch = list(todo)
    round_index = 0
    while batch:
        if round_index > 0:
            time.sleep(backoff_s * (2 ** min(round_index - 1, 5)))
        round_index += 1
        retry: List[str] = []
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_pool_initializer,
            initargs=(
                str(profile_cache_root)
                if profile_cache_root is not None
                else None,
            ),
        )
        try:
            futures = {
                pool.submit(timed_execute, tasks[first_index[key]]): key
                for key in batch
            }
            for future in as_completed(futures):
                key = futures[future]
                attempts[key] += 1
                try:
                    payload, wall = future.result()
                except Exception as exc:  # noqa: BLE001 - includes pool death
                    if attempts[key] > retries:
                        fail_key(
                            key, f"{type(exc).__name__}: {exc}", attempts[key]
                        )
                    else:
                        stats.retries += 1
                        retry.append(key)
                    if isinstance(exc, BrokenProcessPool):
                        continue  # siblings fail fast; drain them all
                    continue
                finish_key(key, payload, SOURCE_EXECUTED, wall, attempts[key])
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        batch = retry
