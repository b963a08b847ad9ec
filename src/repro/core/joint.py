"""The joint power manager (paper Section IV, Fig. 2).

Lifecycle, driven by the simulation engine:

* ``record_pages(times, pages)`` for each span of disk-cache accesses
  inside one period -- the manager maintains its own extended-LRU
  instrumentation (stack-distance tracker) and the per-access
  ``(time, depth)`` log; profiled runs that already hold the depths call
  ``record_profiled(times, depths)`` instead;
* ``end_period(now)`` at each period boundary -- runs the enumeration and
  returns the ``(memory size, disk timeout)`` decision for the next
  period.

The LRU history is *not* reset between periods (the paper's Table IV notes
the method "does not reset the LRU list every period"); only the
per-period access log is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cache.predictor import ResizePredictor
from repro.cache.stack_distance import StackDistanceTracker
from repro.config.machine import MachineConfig
from repro.core.energy_model import CandidateEvaluation, evaluate_candidate
from repro.core.enumeration import candidate_sizes
from repro.disk.service import ServiceModel
from repro.errors import SimulationError


@dataclass(frozen=True)
class PeriodDecision:
    """One period's outcome, kept for diagnostics and the fig9 experiment."""

    period_index: int
    start_s: float
    end_s: float
    #: Chosen memory size for the next period, bytes.
    memory_bytes: int
    #: Chosen disk timeout for the next period (None = never spin down).
    timeout_s: Optional[float]
    #: Accesses observed in the period just ended.
    observed_accesses: int
    #: Disk accesses predicted at the chosen size.
    predicted_disk_accesses: int
    #: Evaluations of all candidates (ascending size).
    evaluations: List[CandidateEvaluation]


class JointPowerManager:
    """Periodically selects the disk-cache size and the disk timeout."""

    def __init__(
        self,
        machine: MachineConfig,
        service: Optional[ServiceModel] = None,
        initial_memory_bytes: Optional[int] = None,
        enforce_constraints: bool = True,
        adapt_memory: bool = True,
        adapt_timeout: bool = True,
    ) -> None:
        """Create a manager; the three flags select ablation variants.

        * ``enforce_constraints=False`` -- the original DATE-2005 method:
          pure energy minimisation, no utilisation/delay limits.
        * ``adapt_memory=False`` -- timeout-only: memory is pinned to its
          initial size and only eq. (5)/(6) run each period.
        * ``adapt_timeout=False`` -- resize-only: memory adapts but the
          disk keeps the 2-competitive timeout.
        """
        self.machine = machine
        self.service = service or ServiceModel(machine.disk, machine.page_bytes)
        self.enforce_constraints = enforce_constraints
        self.adapt_memory = adapt_memory
        self.adapt_timeout = adapt_timeout
        self._candidates_bytes = candidate_sizes(machine)
        page = machine.page_bytes
        self._candidates_pages = [size // page for size in self._candidates_bytes]

        if initial_memory_bytes is None:
            initial_memory_bytes = self._candidates_bytes[-1]
        if initial_memory_bytes not in self._candidates_bytes:
            raise SimulationError(
                "initial memory size must be one of the candidate sizes"
            )
        if not self.adapt_memory:
            # Timeout-only variant: the single candidate is the pinned size.
            self._candidates_bytes = [initial_memory_bytes]
            self._candidates_pages = [initial_memory_bytes // page]
        self.memory_bytes = initial_memory_bytes
        self.timeout_s: Optional[float] = machine.disk.break_even_time_s

        #: Warm-start pages not yet walked through the tracker.
        self._warm_pages: List[int] = []
        self._stack: Optional[StackDistanceTracker] = None
        self._predictor = ResizePredictor()
        self._period_start = 0.0
        self._period_index = 0
        #: Average pages per merged disk request, updated by the engine.
        self.avg_request_pages = 1.0
        #: Full decision history.
        self.decisions: List[PeriodDecision] = []

    # --- warm start --------------------------------------------------------------

    def prefill(self, pages) -> None:
        """Warm the extended-LRU instrumentation with already-cached pages.

        Mirrors :meth:`repro.memory.system.MemorySystem.prefill`: the same
        pages in the same order, so the tracker's stack matches the
        resident set and prefilled pages are not misclassified as cold.

        The pages are only stored here: profiled runs feed
        :meth:`record_profiled` and never read the manager's own tracker,
        so the walk waits for the first :attr:`_tracker` use.
        """
        self._warm_pages.extend(np.asarray(pages, dtype=np.int64).tolist())

    @property
    def _tracker(self) -> StackDistanceTracker:
        """The manager's own tracker, warmed with the prefill on first use."""
        if self._stack is None:
            self._stack = StackDistanceTracker()
        if self._warm_pages:
            self._stack.access_array(self._warm_pages)
            self._warm_pages = []
        return self._stack

    # --- per-span ----------------------------------------------------------------

    def record_pages(self, times, pages) -> np.ndarray:
        """Feed a span of disk-cache accesses; returns their stack depths.

        The depths come from the manager's own tracker.  The period log
        is read only at :meth:`end_period`, so a span recorded ahead of
        its replay equals recording each access as it is replayed --
        provided the span ends before the next period boundary, which the
        engine enforces.
        """
        depths = self._tracker.access_array(pages)
        self.record_profiled(times, depths)
        return depths

    def record_profiled(self, times, depths) -> None:
        """Feed a span of disk-cache accesses with precomputed stack depths.

        The epoch replay kernel already holds every access's depth (the
        trace profile is the same tracker run over the same prefill and
        page sequence), so it feeds the per-period log directly and skips
        the manager's own tracker entirely.  Callers own the contract that
        ``depths`` equals what :meth:`record_pages` would have computed --
        the ``parity`` differential check and the kernel identity tests
        enforce it.
        """
        self._predictor.record_array(times, depths)

    # --- per-period ---------------------------------------------------------------

    def end_period(self, now: float) -> PeriodDecision:
        """Close the current period and decide the next configuration."""
        if now < self._period_start:
            raise SimulationError("period end precedes its start")
        manager = self.machine.manager
        observed = len(self._predictor)

        predictions = self._predictor.predict(
            self._candidates_pages,
            window_s=manager.aggregation_window_s,
            period_start=self._period_start,
            period_end=now,
        )
        period_len = max(now - self._period_start, 1e-9)
        evaluations = [
            evaluate_candidate(
                self.machine,
                self.service,
                prediction,
                period_s=period_len,
                avg_request_pages=self.avg_request_pages,
                enforce_constraints=self.enforce_constraints,
            )
            for prediction in predictions
        ]

        chosen = self._select(evaluations)
        self.memory_bytes = chosen.capacity_bytes
        if self.adapt_timeout:
            self.timeout_s = chosen.timeout_s
        else:
            self.timeout_s = self.machine.disk.break_even_time_s

        decision = PeriodDecision(
            period_index=self._period_index,
            start_s=self._period_start,
            end_s=now,
            memory_bytes=chosen.capacity_bytes,
            timeout_s=self.timeout_s,
            observed_accesses=observed,
            predicted_disk_accesses=chosen.prediction.num_disk_accesses,
            evaluations=evaluations,
        )
        self.decisions.append(decision)

        self._predictor.reset()
        self._period_start = now
        self._period_index += 1
        return decision

    def _select(self, evaluations: List[CandidateEvaluation]) -> CandidateEvaluation:
        """Pick the lowest-power feasible candidate (smaller size on ties).

        When no candidate meets the utilisation constraint, pick the one
        with the lowest predicted utilisation (largest memory helps), and
        among those the lowest power.
        """
        if not evaluations:
            raise SimulationError("no candidates evaluated")
        feasible = [e for e in evaluations if e.feasible]
        pool = feasible if feasible else evaluations
        if feasible:
            # Ascending input order makes min() prefer the smaller size on
            # exact power ties.
            return min(pool, key=lambda e: (e.total_power_w, e.capacity_bytes))
        # Nothing feasible: a floor of unavoidable disk traffic (e.g. cold
        # misses) exceeds the utilisation limit at every size.  Take the
        # candidates within a whisker of the lowest achievable utilisation
        # -- growing memory further buys nothing -- and minimise power
        # among them.  This is how the paper's manager lands "close to the
        # data-set size" when even full memory cannot meet U (Section V-B1).
        lowest = min(e.predicted_utilization for e in pool)
        tolerance = max(lowest * 0.05, 1e-4)
        near_minimum = [
            e for e in pool if e.predicted_utilization <= lowest + tolerance
        ]
        return min(
            near_minimum, key=lambda e: (e.total_power_w, e.capacity_bytes)
        )

    # --- introspection ---------------------------------------------------------------

    @property
    def candidates_bytes(self) -> List[int]:
        return list(self._candidates_bytes)

    @property
    def period_start(self) -> float:
        return self._period_start
