"""Douglis adaptive spin-down timeout (AD).

Douglis, Krishnan & Bershad [27], with the paper's parameters
(Section V-A): start 10 s, step 5 s, range [5, 30] s, and a 0.05 maximum
acceptable ratio between the spin-up delay and the idle time preceding the
spin-up.  When a wake's delay exceeds that fraction of the idle period it
interrupted, the spin-down was judged too eager and the timeout grows;
otherwise it shrinks.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PolicyError
from repro.policies.base import NO_CHANGE, DiskPolicy, TimeoutUpdate


class AdaptiveTimeoutPolicy(DiskPolicy):
    """Adaptive timeout driven by the spin-up-delay/idle-time ratio."""

    name = "AD"
    # A request that finds the disk spinning is no evidence either way.
    wake_driven = True

    def __init__(
        self,
        start_s: float = 10.0,
        step_s: float = 5.0,
        min_s: float = 5.0,
        max_s: float = 30.0,
        max_delay_ratio: float = 0.05,
    ) -> None:
        if not 0 < min_s <= start_s <= max_s:
            raise PolicyError("need 0 < min <= start <= max")
        if step_s <= 0:
            raise PolicyError("step must be positive")
        if not 0.0 < max_delay_ratio < 1.0:
            raise PolicyError("delay ratio threshold must be in (0, 1)")
        self.timeout_s = start_s
        self.step_s = step_s
        self.min_s = min_s
        self.max_s = max_s
        self.max_delay_ratio = max_delay_ratio
        #: Adaptation history, for diagnostics: (time, new timeout).
        self.history = []

    def initial_timeout(self) -> Optional[float]:
        return self.timeout_s

    def on_request(
        self,
        now: float,
        latency_s: float,
        wake_delay_s: float,
        idle_before_s: float,
    ) -> TimeoutUpdate:
        del latency_s
        if wake_delay_s <= 0.0:
            # The disk was spinning: no evidence either way.
            return NO_CHANGE
        if idle_before_s <= 0.0:
            ratio = float("inf")
        else:
            ratio = wake_delay_s / idle_before_s
        if ratio > self.max_delay_ratio:
            new_timeout = min(self.timeout_s + self.step_s, self.max_s)
        else:
            new_timeout = max(self.timeout_s - self.step_s, self.min_s)
        if new_timeout == self.timeout_s:
            return NO_CHANGE
        self.timeout_s = new_timeout
        self.history.append((now, new_timeout))
        return new_timeout
