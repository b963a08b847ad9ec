"""Shared trace profiles: one stack-distance pass, every sweep point.

Mattson's stack algorithm (the paper's Section IV-B insight) yields the
hit/miss outcome of every access for *all* LRU cache sizes from a single
pass: an access with stack distance ``d`` hits a cache of ``m`` pages iff
``0 <= d < m``.  A :class:`TraceProfile` is that single pass, stored as a
numpy array of per-access stack distances, computed once per trace and
shared by

* every memory size a sweep visits,
* every method replayed on the same workload (the profile depends only on
  the access stream, not on the disk policy), and
* every later campaign run, through the content-addressed result cache
  (:mod:`repro.campaign.cache`) the campaign subsystem already maintains.

The profile optionally folds in the warm-start prefill
(:func:`repro.sim.prefill.warm_start_pages`): feeding the prefill
sequence through the tracker first makes the profile's distances agree
with a cache prefilled the way :meth:`MemorySystem.prefill` does it, for
*every* capacity at once (the prefill keeps the hottest tail, which is
exactly the top of the LRU stack).

Profiles are content-addressed by a digest over the trace arrays, the
prefill flag and the code fingerprint, so a cached profile can never be
replayed against a different trace or stale code.  Persistence goes
through the same ``ResultCache`` JSON objects the campaign executor uses
(distances are zlib-compressed, base64-encoded ``int32``).
"""

from __future__ import annotations

import base64
import hashlib
import os
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.cache.stack_distance import StackDistanceTracker
from repro.errors import SimulationError

#: Bump when the profile payload layout changes (invalidates old entries).
PROFILE_SCHEMA = 1

#: Default in-process memo capacity (profiles are O(trace) sized).
DEFAULT_MEMO_CAPACITY = 8

#: Environment override for the memo capacity.  Cross-trace grid sweeps
#: (:mod:`repro.campaign.gridscan`) revisit many profiles round-robin,
#: so the 8-entry default thrashes; raise it for such runs.
PROFILE_MEMO_ENV = "REPRO_PROFILE_MEMO"

#: Environment switch: set to ``0``/``off`` to disable profile use and
#: force every replay through the scalar loop (debugging escape hatch).
KERNELS_ENV = "REPRO_KERNELS"


def memo_capacity() -> int:
    """The in-process memo's entry limit (``$REPRO_PROFILE_MEMO``).

    Read per call so tests and long-lived services can retune without a
    restart.  Invalid or non-positive values fall back to the default.
    """
    raw = os.environ.get(PROFILE_MEMO_ENV, "").strip()
    if not raw:
        return DEFAULT_MEMO_CAPACITY
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MEMO_CAPACITY
    return value if value > 0 else DEFAULT_MEMO_CAPACITY


def kernels_enabled() -> bool:
    """False when ``$REPRO_KERNELS`` asks for the scalar loop everywhere."""
    return os.environ.get(KERNELS_ENV, "").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


@contextmanager
def kernels_off():
    """Set the ``$REPRO_KERNELS`` kill switch for the ``with`` body."""
    previous = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = previous


@dataclass(frozen=True)
class TraceProfile:
    """Per-access stack distances of one trace (plus prefill), one pass."""

    #: Stack distance of each trace access (``-1`` = cold/first access).
    depths: np.ndarray
    #: Whether the warm-start prefill sequence seeded the distances.
    warm_start: bool
    #: Content address (trace arrays + prefill flag + code fingerprint).
    key: str

    def __len__(self) -> int:
        return int(self.depths.size)

    @property
    def num_accesses(self) -> int:
        return len(self)

    def hit_mask(self, capacity_pages: int, length: Optional[int] = None) -> np.ndarray:
        """Boolean hit flags for an LRU cache of ``capacity_pages`` pages.

        ``length`` truncates to the first accesses (duration clipping).
        """
        depths = self.depths if length is None else self.depths[:length]
        return (depths >= 0) & (depths < capacity_pages)

    def sorted_depths(self) -> np.ndarray:
        """The depths sorted ascending, cached after the first call.

        Cold accesses (``-1``) sort first, so the hit count of *every*
        capacity is two ``searchsorted`` calls away -- the backbone of
        the cross-trace grid sweeps (:mod:`repro.campaign.gridscan`).
        """
        cached = getattr(self, "_sorted_depths", None)
        if cached is None:
            cached = np.sort(self.depths)
            cached.setflags(write=False)
            object.__setattr__(self, "_sorted_depths", cached)
        return cached

    def hit_counts(self, capacities_pages) -> np.ndarray:
        """Hits at each LRU capacity (vectorized Mattson counting).

        ``capacities_pages`` is an array of page capacities; the result
        aligns with it.  An access of depth ``d`` hits capacity ``m``
        iff ``0 <= d < m``, so the count is the number of sorted depths
        inside ``[0, m)``.
        """
        capacities = np.asarray(capacities_pages, dtype=np.int64)
        if capacities.size and int(capacities.min()) < 0:
            raise SimulationError("capacities must be non-negative")
        ordered = self.sorted_depths()
        warm_lo = int(np.searchsorted(ordered, 0, side="left"))
        return np.searchsorted(ordered, capacities, side="left") - warm_lo

    def miss_counts(self, capacities_pages) -> np.ndarray:
        """Misses (cold + over-capacity) at each LRU capacity."""
        return len(self) - self.hit_counts(capacities_pages)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe encoding for the campaign result cache."""
        raw = np.ascontiguousarray(self.depths, dtype=np.int32).tobytes()
        return {
            "kind": "trace_profile",
            "schema": PROFILE_SCHEMA,
            "n": self.num_accesses,
            "warm_start": self.warm_start,
            "dtype": "int32",
            "depths": base64.b64encode(zlib.compress(raw, 6)).decode("ascii"),
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], key: str
    ) -> Optional["TraceProfile"]:
        """Decode a cached payload; None when the entry is unusable."""
        try:
            if (
                payload.get("kind") != "trace_profile"
                or payload.get("schema") != PROFILE_SCHEMA
                or payload.get("dtype") != "int32"
            ):
                return None
            raw = zlib.decompress(base64.b64decode(payload["depths"]))
            depths = np.frombuffer(raw, dtype=np.int32)
            if depths.size != int(payload["n"]):
                return None
        except (KeyError, ValueError, TypeError, zlib.error):
            return None
        depths = depths.astype(np.int64)
        depths.setflags(write=False)
        return cls(
            depths=depths, warm_start=bool(payload["warm_start"]), key=key
        )


# --- content addressing -------------------------------------------------------


def trace_fingerprint(trace) -> str:
    """SHA-256 over the arrays that determine the profile."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.times, dtype=np.float64).tobytes())
    h.update(b"\0")
    h.update(np.ascontiguousarray(trace.pages, dtype=np.int64).tobytes())
    h.update(b"\0")
    if trace.writes is not None:
        h.update(np.ascontiguousarray(trace.writes, dtype=bool).tobytes())
    h.update(b"\0")
    h.update(str(trace.page_size).encode("ascii"))
    return h.hexdigest()


def profile_key(trace, warm_start: bool) -> str:
    """The profile's content address in the campaign result cache."""
    from repro.campaign.hashing import task_key

    return task_key(
        {
            "kind": "trace_profile",
            "schema": PROFILE_SCHEMA,
            "trace": trace_fingerprint(trace),
            "warm_start": bool(warm_start),
        }
    )


# --- construction and caching -------------------------------------------------


def build_profile(trace, warm_start: bool = True, key: Optional[str] = None) -> TraceProfile:
    """One tracker pass over (prefill +) trace; no caches consulted."""
    tracker = StackDistanceTracker()
    if warm_start:
        from repro.sim.prefill import warm_start_pages

        tracker.access_array(warm_start_pages(trace))
    depths = tracker.access_array(trace.pages)
    if depths.size and int(depths.max()) >= np.iinfo(np.int32).max:
        raise SimulationError("stack distance overflows the profile encoding")
    depths.setflags(write=False)
    return TraceProfile(
        depths=depths,
        warm_start=warm_start,
        key=key if key is not None else profile_key(trace, warm_start),
    )


#: key -> TraceProfile, least recently used first.
_memo: "OrderedDict[str, TraceProfile]" = OrderedDict()

#: The process-wide persistence backend (a ``ResultCache``-like object),
#: installed by campaign runs and ``repro bench``; None = memo only.
_active_cache: Any = None

#: Sentinel distinguishing "use the active cache" from an explicit None.
_USE_ACTIVE = object()


def set_active_cache(cache: Any) -> Any:
    """Install the process-wide profile persistence backend.

    Accepts a :class:`repro.campaign.cache.ResultCache`-like object (any
    ``get``/``put`` pair), a directory path, or None to go memo-only.
    Returns the previous backend so callers can restore it.
    """
    global _active_cache
    previous = _active_cache
    if cache is None or hasattr(cache, "get"):
        _active_cache = cache
    else:  # a path-like cache root
        from repro.campaign.cache import ResultCache

        _active_cache = ResultCache(cache)
    return previous


def active_cache() -> Any:
    """The installed persistence backend (None = memo only)."""
    return _active_cache


def clear_memo() -> None:
    """Drop the in-process profile memo (tests, memory pressure)."""
    _memo.clear()


def _memo_put(key: str, profile: TraceProfile) -> None:
    _memo[key] = profile
    _memo.move_to_end(key)
    capacity = memo_capacity()
    while len(_memo) > capacity:
        _memo.popitem(last=False)


def get_profile(trace, warm_start: bool = True, cache: Any = _USE_ACTIVE) -> TraceProfile:
    """The trace's profile, via memo -> result cache -> one-pass build.

    ``cache`` overrides the process-wide backend (None disables
    persistence for this call).  Every path returns a profile whose
    ``key`` commits to the exact trace content, so callers may pass it to
    any engine replaying the same trace.
    """
    key = profile_key(trace, warm_start)
    hit = _memo.get(key)
    if hit is not None:
        _memo.move_to_end(key)
        return hit
    backend = _active_cache if cache is _USE_ACTIVE else cache
    if backend is not None:
        payload = backend.get(key)
        if payload is not None:
            profile = TraceProfile.from_payload(payload, key)
            if profile is not None and len(profile) == trace.num_accesses:
                _memo_put(key, profile)
                return profile
    profile = build_profile(trace, warm_start=warm_start, key=key)
    _memo_put(key, profile)
    if backend is not None:
        backend.put(key, profile.to_payload())
    return profile
