"""Differential verification through the campaign executor.

:func:`repro.verify.differential.run_differential` walks its seed range
serially inside one process.  The seeds are independent by construction
-- each expands deterministically into its own fuzzed workload -- so the
range chunks cleanly into campaign tasks: :func:`verify_plan` is one
:class:`~repro.campaign.tasks.VerifyTask` per (check, seed chunk), run
through :func:`repro.campaign.plan.run_plan` -- fanned out over a
process pool and cached like any other campaign work.  At ``jobs=1``
each check is one task, so a diverging check stops at its first
diverging seed exactly as the serial runner does.

The merged :class:`~repro.verify.differential.VerifyReport` is the one
the serial runner would have produced: chunks run to completion even
when an earlier chunk diverges, but only the earliest divergence (in
seed order) is reported, and ``seeds_run`` counts up to it exactly as
the serial early-exit would have.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

from repro.campaign.plan import CampaignPlan, run_plan
from repro.campaign.tasks import VerifyTask
from repro.errors import SimulationError
from repro.verify.differential import (
    CheckOutcome,
    Divergence,
    VerifyReport,
    check_names,
)


def chunk_seeds(seeds: int, jobs: int, chunk: Optional[int] = None) -> List[int]:
    """Split ``seeds`` into contiguous chunk sizes.

    One chunk when ``jobs <= 1``; otherwise small enough that every
    worker gets several (so one slow chunk does not serialise the run),
    large enough that per-task overhead stays negligible.  An explicit
    ``chunk`` overrides the heuristic.
    """
    if chunk is None:
        chunk = seeds if jobs <= 1 else max(1, math.ceil(seeds / (jobs * 4)))
    if chunk <= 0:
        raise SimulationError("chunk size must be positive")
    sizes = []
    remaining = seeds
    while remaining > 0:
        size = min(chunk, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def verify_plan(
    seeds: int = 50,
    checks: Optional[Sequence[str]] = None,
    first_seed: int = 0,
    max_accesses: int = 300,
    jobs: int = 1,
    chunk: Optional[int] = None,
) -> CampaignPlan:
    """The differential checks as (check, seed chunk) tasks whose
    assembly merges the chunk payloads into one :class:`VerifyReport`."""
    names = check_names(seeds, checks)
    tasks: List[VerifyTask] = []
    for name in names:
        start = first_seed
        for size in chunk_seeds(seeds, jobs, chunk):
            tasks.append(
                VerifyTask(
                    check=name,
                    first_seed=start,
                    seeds=size,
                    max_accesses=max_accesses,
                )
            )
            start += size

    def assemble(payloads: Sequence[dict]) -> VerifyReport:
        outcomes = {name: CheckOutcome(name=name, seeds_run=seeds) for name in names}
        # Payloads arrive in task order, each check's chunks by seed, so
        # the first divergence seen is the check's earliest.  seeds_run
        # counts from the check's first seed up to and including it, as
        # the serial runner's early exit would have.
        for part in payloads:
            found = part["divergence"]
            if found is None or outcomes[part["check"]].divergence is not None:
                continue
            outcomes[part["check"]] = CheckOutcome(
                name=part["check"],
                seeds_run=part["first_seed"] - first_seed + part["seeds_run"],
                divergence=Divergence(
                    **dict(
                        found,
                        times=tuple(found["times"]),
                        pages=tuple(found["pages"]),
                    )
                ),
            )
        return VerifyReport(
            first_seed=first_seed,
            seeds=seeds,
            outcomes=[outcomes[name] for name in names],
        )

    return CampaignPlan(tasks=tasks, assemble=assemble)


def run_differential_campaign(
    seeds: int = 50,
    checks: Optional[Sequence[str]] = None,
    first_seed: int = 0,
    max_accesses: int = 300,
    jobs: int = 1,
    chunk: Optional[int] = None,
    **options: Any,
) -> VerifyReport:
    """Run :func:`verify_plan` through :func:`repro.campaign.plan.run_plan`.

    Equivalent to :func:`~repro.verify.differential.run_differential`
    (same report, same divergences, same ``seeds_run`` accounting), but
    each (check, chunk) is an independent campaign task: ``jobs > 1``
    runs them on a process pool, and ``options`` are ``run_campaign``'s
    own (``cache=`` skips chunks whose code and parameters have not
    changed since the last run; ``on_progress=`` sees each finished
    task).
    """
    plan = verify_plan(seeds, checks, first_seed, max_accesses, jobs, chunk)
    return run_plan(plan, jobs=jobs, **options)
