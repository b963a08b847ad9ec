"""Goodness of fit of the Pareto idle-time model.

The joint method's timeout analysis (eqs. 2-6) rests on the assumption
that disk idle intervals are Pareto distributed ("previous studies show
that the distributions of the disk idle intervals have heavy tails",
Section I).  This module makes the assumption checkable on any workload:

1. derive the disk idle intervals a given memory size would produce
   (via the same extended-LRU machinery the manager uses),
2. fit the paper's method-of-moments Pareto,
3. score the fit with the Kolmogorov-Smirnov statistic and, more
   importantly, with the error of the quantity the manager actually
   consumes: eq. (4)'s expected disk power at the chosen timeout versus
   the exact power computed from the sample itself.

The KS statistic on realistic traces is often large (idle processes are
not literally Pareto); what the method needs is a small *power error* --
the eq.-4 estimate drives the (memory, timeout) choice, and it stays
accurate whenever the model captures how much idle mass lies beyond the
timeout, even when the distribution's body is mis-shaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import stats as scipy_stats

from repro.cache.predictor import ResizePredictor
from repro.cache.stack_distance import StackDistanceTracker
from repro.errors import FitError
from repro.stats.intervals import IdleIntervals
from repro.stats.pareto import ParetoDistribution, fit_moments
from repro.stats.timeout_math import expected_power, optimal_timeout
from repro.traces.trace import Trace


@dataclass(frozen=True)
class ParetoFitReport:
    """Fit quality of the Pareto model on one interval sample."""

    fit: ParetoDistribution
    num_intervals: int
    #: Kolmogorov-Smirnov distance between the sample and the fit.
    ks_statistic: float
    ks_pvalue: float
    #: Timeout the manager would install (eq. 5).
    timeout_s: float
    #: Error of eq. (4)'s expected disk power at that timeout against the
    #: exact power computed from the sample, as a fraction of the disk's
    #: static power (0 = perfect, 1 = off by the whole savable power).
    power_error: float

    @property
    def usable(self) -> bool:
        """Is the model good enough for the manager's purposes?

        The criterion is operational, not statistical: the power estimate
        the manager ranks candidates by is within 15 % of the disk's
        static power.
        """
        return self.power_error <= 0.15


def check_pareto_fit(
    intervals: Sequence[float], break_even_s: float = 11.74
) -> ParetoFitReport:
    """Fit and score the Pareto model on raw interval lengths."""
    lengths = np.asarray(intervals, dtype=float)
    if lengths.size < 5:
        raise FitError("need at least five intervals to judge a fit")
    fit = fit_moments(lengths)

    ks_statistic, ks_pvalue = scipy_stats.kstest(
        lengths, lambda x: np.vectorize(fit.cdf)(x)
    )

    timeout = optimal_timeout(fit, break_even_s)

    # eq. (4) vs exact, both normalised to unit static power over the
    # sample's own idle-time universe.
    period = float(lengths.sum())
    count = float(lengths.size)
    predicted = expected_power(
        fit,
        num_intervals=count,
        timeout_s=timeout,
        period_s=period,
        static_power_w=1.0,
        break_even_s=break_even_s,
    )
    off_time = float(np.maximum(lengths - timeout, 0.0).sum())
    spin_downs = float((lengths > timeout).sum())
    exact = (period - off_time) / period + break_even_s * spin_downs / period

    return ParetoFitReport(
        fit=fit,
        num_intervals=int(lengths.size),
        ks_statistic=float(ks_statistic),
        ks_pvalue=float(ks_pvalue),
        timeout_s=timeout,
        power_error=abs(predicted - exact),
    )


def idle_intervals_of_trace(
    trace: Trace,
    memory_pages: int,
    window_s: float = 0.1,
    warmup_fraction: float = 0.25,
) -> IdleIntervals:
    """Idle intervals the disk would see at ``memory_pages`` of cache.

    Runs the trace through the stack-distance instrumentation (skipping
    ``warmup_fraction`` of the timeline as cold start) exactly as the
    joint manager observes it.
    """
    if trace.num_accesses == 0:
        raise FitError("empty trace")
    if not 0.0 <= warmup_fraction < 1.0:
        raise FitError("warm-up fraction must be in [0, 1)")
    observe_from = trace.duration_s * warmup_fraction
    depths = StackDistanceTracker().access_array(trace.pages)
    start = int(np.searchsorted(trace.times, observe_from, side="left"))
    predictor = ResizePredictor()
    predictor.record_array(trace.times[start:], depths[start:])
    [prediction] = predictor.predict(
        [memory_pages],
        window_s=window_s,
        period_start=observe_from,
        period_end=trace.duration_s,
    )
    return prediction.idle


def check_trace(
    trace: Trace,
    memory_pages: int,
    break_even_s: float = 11.74,
    window_s: float = 0.1,
) -> Optional[ParetoFitReport]:
    """End-to-end: trace -> idle intervals -> fit report.

    Returns ``None`` when the workload leaves too few intervals to judge.
    """
    idle = idle_intervals_of_trace(trace, memory_pages, window_s=window_s)
    if idle.count < 5:
        return None
    return check_pareto_fit(idle.lengths, break_even_s=break_even_s)
