"""Campaign orchestration: parallel experiment fan-out with caching.

Turns experiment suites, parameter sweeps and differential-verification
seed ranges into DAGs of independent tasks; executes them on a process
pool with a content-addressed result cache, a resumable JSONL run
journal, per-task retry, and run telemetry.  See ``docs/API.md`` for the
task model and cache-key definition.
"""

from repro.campaign.cache import CACHE_ENV, NullCache, ResultCache, default_cache_root
from repro.campaign.executor import (
    CampaignReport,
    CampaignStats,
    TaskRecord,
    run_campaign,
)
from repro.campaign.hashing import canonical_json, code_fingerprint, digest, task_key
from repro.campaign.journal import RunJournal, completed_payloads, read_events
from repro.campaign.plan import (
    CampaignPlan,
    GridPoint,
    grid_plan,
    grid_tasks,
    resolve_methods,
    run_plan,
    split_by_point,
)
from repro.campaign.tasks import (
    ExperimentTask,
    SimSummary,
    SimTask,
    VerifyTask,
    WorkloadSpec,
)

__all__ = [
    "CACHE_ENV",
    "CampaignPlan",
    "CampaignReport",
    "CampaignStats",
    "ExperimentTask",
    "GridPoint",
    "NullCache",
    "ResultCache",
    "RunJournal",
    "SimSummary",
    "SimTask",
    "TaskRecord",
    "VerifyTask",
    "WorkloadSpec",
    "canonical_json",
    "code_fingerprint",
    "completed_payloads",
    "default_cache_root",
    "digest",
    "grid_plan",
    "grid_tasks",
    "read_events",
    "resolve_methods",
    "run_campaign",
    "run_plan",
    "split_by_point",
    "task_key",
]
