"""The campaign executor: fan tasks out, cache, journal, retry, report.

``run_campaign`` takes any list of campaign tasks (:mod:`repro.campaign.tasks`)
and resolves each one, in order of preference:

1. the run journal of the run being resumed (``resume=RUN_ID``),
2. the content-addressed result cache,
3. execution, in rounds.  One loop reads each round's outcomes, either
   in-process when ``jobs <= 1`` (each task's record, journal entry,
   cache put and progress call come before the next task starts; tests
   that monkeypatch task internals rely on it) or from a fresh
   ``ProcessPoolExecutor`` with ``jobs`` workers, in completion order.

Identical task keys within one campaign execute once and fan the result
out: the first task of each key holds the key's record, and duplicates
copy it.  Only crash-like failures retry -- a dead worker
(``BrokenProcessPool``) or a failed I/O call (``OSError``) -- in the
next round, after a backoff, up to ``retries`` times; any other
exception is deterministic and fails its task on the first attempt.
What fails is recorded per-task and surfaces in ``CampaignReport.ok``
rather than aborting the rest of the campaign.

Telemetry -- per-task wall-clock (measured inside the worker), cache
hit/miss counters, worker utilization -- is returned on the report,
rendered by ``render_summary()`` and written as ``campaign.json`` next to
the journal.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

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

#: A task's payload and its in-worker wall-clock seconds.
Outcome = Tuple[Dict[str, Any], float]

#: Failures worth another attempt: a dead worker or a failed I/O call.
RETRYABLE = (BrokenProcessPool, OSError)
#: Pause before retry round ``n``: ``BACKOFF_S * 2 ** (n - 1)``, capped at 32x.
BACKOFF_S = 0.25

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
    cache_root = getattr(cache, "root", None)
    if runs_root is None and cache_root is not None:
        runs_root = cache_root / "runs"

    start = time.monotonic()
    tasks = list(tasks)
    keys = [task.key for task in tasks]
    records = [
        TaskRecord(index=i, key=key, kind=task.kind, label=task.describe())
        for i, (task, key) in enumerate(zip(tasks, keys))
    ]
    # Unique keys, first occurrence wins: its record is the key's ledger
    # entry, and later duplicates copy it as dedup hits.
    first_index: Dict[str, int] = {}
    for i, key in enumerate(keys):
        first_index.setdefault(key, i)
    stats = CampaignStats(tasks=len(tasks), unique=len(first_index), jobs=jobs)

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
    journal_payloads: Dict[str, Dict[str, Any]] = {}
    if runs_root is not None:
        run_dir = Path(runs_root) / run_id
        if resume is not None:
            # Raises CampaignError when the journal does not exist.
            journal_payloads = completed_payloads(run_dir)
        journal = RunJournal(run_dir)
        journal.append(
            "run_started",
            run_id=run_id,
            tasks=len(tasks),
            unique=stats.unique,
            jobs=jobs,
            resumed_from=resume,
            code_fingerprint=code_fingerprint(),
        )

    done = itertools.count(1)

    def settle(rep: TaskRecord, event: str, **fields: Any) -> None:
        if journal is not None:
            journal.append(
                event, key=rep.key, kind=rep.kind, label=rep.label, **fields
            )
        if on_progress is not None:
            on_progress(rep, next(done), stats.unique)

    def finish(rep: TaskRecord, payload: Dict[str, Any], source: str,
               wall: float = 0.0) -> None:
        rep.payload, rep.source, rep.wall_s = payload, source, wall
        if source == SOURCE_EXECUTED:
            cache.put(rep.key, payload)
        settle(rep, "task_done", source=source, wall_s=wall,
               attempts=rep.attempts, payload=payload)

    def fail(rep: TaskRecord, exc: Exception) -> None:
        rep.error = f"{type(exc).__name__}: {exc}"
        settle(rep, "task_failed", attempts=rep.attempts, error=rep.error)

    # 1/2: resolve from the resumed journal, then the cache.
    reps = [records[i] for i in first_index.values()]
    for rep in reps:
        if rep.key in journal_payloads:
            finish(rep, journal_payloads[rep.key], SOURCE_JOURNAL)
        else:
            hit = cache.get(rep.key)
            if hit is not None:
                finish(rep, hit, SOURCE_CACHE)

    # 3: execute what is left, in rounds: a round runs its batch once,
    # and the crash-like failures within retry budget make the next
    # round's batch.  While tasks run, point the trace-profile layer at
    # the campaign's result cache so every sweep point, method and later
    # resumed run shares one stack-distance pass per trace, and let the
    # tasks of one workload share its built trace.
    batch = [rep for rep in reps if not rep.ok]
    previous_backend = _install_profile_cache(cache)
    try:
        with sharing_traces() as shared:
            rounds = 0
            while batch:
                if rounds:
                    time.sleep(BACKOFF_S * 2 ** min(rounds - 1, 5))
                rounds += 1
                retry: List[TaskRecord] = []
                outcomes = _outcomes(batch, tasks, jobs, cache_root)
                with closing(outcomes):
                    for rep, outcome in outcomes:
                        rep.attempts += 1
                        if not isinstance(outcome, Exception):
                            payload, wall = outcome
                            finish(rep, payload, SOURCE_EXECUTED, wall)
                        elif (isinstance(outcome, RETRYABLE)
                              and rep.attempts <= retries):
                            stats.retries += 1
                            retry.append(rep)
                        else:
                            fail(rep, outcome)
                batch = retry
    finally:
        trace_profiles.set_active_cache(previous_backend)
    stats.trace_builds = shared.builds if jobs <= 1 else None

    # Fan each key's outcome out to its duplicates, then count.
    for record in records:
        rep = records[first_index[record.key]]
        if record is rep:
            continue
        if rep.ok:
            record.payload, record.source = rep.payload, SOURCE_DEDUP
        else:
            record.error, record.attempts = rep.error, rep.attempts
    sources = Counter(record.source for record in records if record.ok)
    stats.executed = sources[SOURCE_EXECUTED]
    stats.cache_hits = sources[SOURCE_CACHE]
    stats.journal_hits = sources[SOURCE_JOURNAL]
    stats.dedup_hits = sources[SOURCE_DEDUP]
    stats.failures = sum(1 for record in records if not record.ok)
    stats.busy_s = sum(record.wall_s for record in records)
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


def _outcome(call: Callable[[], Outcome]) -> Union[Outcome, Exception]:
    """``call()``, or the exception it raised (a dead pool's included)."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - per-task isolation
        return exc


def _outcomes(
    batch: List[TaskRecord],
    tasks: Sequence[Task],
    jobs: int,
    cache_root: Optional[Path],
) -> Iterator[Tuple[TaskRecord, Union[Outcome, Exception]]]:
    """Run one round: yield ``(record, (payload, wall) | exception)`` per
    task of ``batch``, in this process when ``jobs <= 1`` (each task's
    outcome is handled before the next one starts), else on a fresh
    pool in completion order.  A ``BrokenProcessPool`` fails every task
    still in flight, each one a casualty of the round."""
    if jobs <= 1:
        for rep in batch:
            yield rep, _outcome(partial(timed_execute, tasks[rep.index]))
        return
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_pool_initializer,
        initargs=(str(cache_root) if cache_root is not None else None,),
    )
    try:
        futures = {
            pool.submit(timed_execute, tasks[rep.index]): rep for rep in batch
        }
        for future in as_completed(futures):
            yield futures[future], _outcome(future.result)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
