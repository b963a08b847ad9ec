"""Output checks: audits and bit-identity against the reference paths.

No simulated number is hard-coded here.  A run is correct when

* ``repro.sim.audit.audit_result`` finds nothing wrong with any result,
* every repetition of a workload (traced or not) returns the same
  results, field for field and bit for bit, and
* on a short slice of the same inputs, the fast path equals the repo's
  reference: the scalar loop for offline runs, offline ``run_method``
  for streamed tenants.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

#: Fields the fast and reference paths are allowed to disagree on.
_MODE_FIELD = ("replay_mode",)


def result_diff(fast, reference, ignore: Sequence[str] = _MODE_FIELD) -> Optional[str]:
    """First field in which two ``SimResult`` objects differ.

    ``replay_mode`` names the loop that produced a result, so it is
    skipped when comparing a fast path with its reference.
    """
    # Imported here: repro.verify loads the optional hypothesis package,
    # which would otherwise count towards every replica's set-up time.
    from repro.verify.differential import deep_diff

    for f in dataclasses.fields(fast):
        if f.name in ignore:
            continue
        found = deep_diff(getattr(fast, f.name), getattr(reference, f.name), f"{fast.label}.{f.name}")
        if found:
            return found
    return None


def audit_all(results, machine) -> List[str]:
    """Every invariant ``audit_result`` reports for any of ``results``."""
    from repro.sim.audit import audit_result

    problems = []
    for result in results:
        problems.extend(f"{result.label}: {p}" for p in audit_result(result, machine))
    return problems


def repeat_diffs(instances) -> List[str]:
    """Differences between any repetition's results and the first one's."""
    problems = []
    first = instances[0].results
    for index, instance in enumerate(instances[1:], start=1):
        if len(instance.results) != len(first):
            problems.append(f"repetition {index}: {len(instance.results)} results, expected {len(first)}")
            continue
        for a, b in zip(instance.results, first):
            found = result_diff(a, b, ignore=())
            if found:
                problems.append(f"repetition {index}: {found}")
    return problems


@contextmanager
def scalar_reference() -> Iterator[None]:
    """Force the scalar loop everywhere via the ``REPRO_KERNELS`` kill switch.

    ``profile=None`` alone does not: the disable model replays without a
    profile.  The previous setting is restored on exit.
    """
    from repro.cache.profile import KERNELS_ENV

    previous = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = previous


def offline_slice_diffs(methods, trace, machine, duration_s, warmup_s) -> List[str]:
    """Fast path vs scalar loop for each method on one trace slice."""
    from repro.cache.profile import clear_memo
    from repro.sim.runner import run_method

    problems = []
    clear_memo()
    for method in methods:
        fast = run_method(method, trace, machine, duration_s=duration_s, warmup_s=warmup_s)
        with scalar_reference():
            reference = run_method(
                method, trace, machine, duration_s=duration_s, warmup_s=warmup_s, profile=None
            )
        if reference.replay_mode != "scalar":
            problems.append(f"{reference.label}: reference ran {reference.replay_mode}, not scalar")
        if fast.replay_mode == "scalar":
            problems.append(f"{fast.label}: the fast path fell back to the scalar loop")
        found = result_diff(fast, reference)
        if found:
            problems.append(f"slice fast != scalar: {found}")
        problems.extend(audit_all([fast, reference], machine))
    clear_memo()
    return problems
