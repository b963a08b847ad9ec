"""Span tracer for the traced benchmark run.

While installed, it wraps the public entry points of each ``repro`` layer
at class (or module) level and accumulates, per span name, the call count
and the *self* time: a span's duration minus the part of it covered by
child spans.  Self times therefore add up to the traced wall time without
counting nested work twice.

Nothing inside ``src/`` is edited.  The wrappers never sit on an instance
and never touch a disk policy's ``on_request``/``on_idle_start`` hooks:
``repro.sim.kernels`` reads those (and instance-level ``SimDisk.submit``/
``submit_run`` overrides) to choose the replay mode, so the traced run
takes the same modes as the untraced one.  ``run.py`` asserts that.

Per-access methods (``StackDistanceTracker.access``,
``JointPowerManager.record_access``, ``MemorySystem.access``) are left
unwrapped on purpose: a wrapper per access would cost more than the work
it times.  Their time lands in the self time of the traced caller.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Called after a traced call as ``count(counts, args, result)``.
Counter = Callable[[Dict[str, float], tuple, object], None]


def _count_pages(counts: Dict[str, float], args: tuple, result: object) -> None:
    counts["stack_distance.accesses"] += len(args[1])


def _with_subclasses(root: type) -> List[type]:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


#: (module, class name or None for a module attribute, attribute, span).
#: Module-level functions are wrapped in every module that binds them by
#: name, so callers that imported them directly are traced too.
_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.cache.stack_distance", "StackDistanceTracker", "access_array", "stack_distance"),
    ("repro.cache.profile", None, "get_profile", "profile.get"),
    ("repro.sim.runner", None, "get_profile", "profile.get"),
    ("repro.cache.profile", None, "build_profile", "profile.build"),
    ("repro.cache.profile", None, "trace_fingerprint", "profile.fingerprint"),
    ("repro.sim.engine", "SimulationEngine", "run", "replay"),
    ("repro.core.joint", "JointPowerManager", "end_period", "joint.end_period"),
    ("repro.core.joint", "JointPowerManager", "record_profiled", "joint.record"),
    ("repro.service.streaming", "StreamingManager", "feed", "stream.feed"),
    ("repro.service.streaming", "StreamingManager", "close", "stream.close"),
    ("repro.service.sessions", "SessionRegistry", "feed", "sessions.feed"),
    ("repro.service.sessions", "SessionRegistry", "close", "sessions.close"),
    ("repro.traces.suites", None, "build", "traces.build"),
    ("repro.campaign.tasks", "WorkloadSpec", "build", "traces.build"),
    ("repro.sim.prefill", None, "warm_start_pages", "prefill"),
    ("repro.sim.runner", None, "warm_start_pages", "prefill"),
    ("repro.campaign.tasks", "SimTask", "execute", "campaign.task"),
    ("repro.campaign.tasks", None, "task_key", "campaign.key"),
)

_MEMORY_METHODS = ("charge_hit_run", "consume_hit_run", "charge_miss_run")

_COUNTERS: Dict[str, Counter] = {"stack_distance": _count_pages}


class Tracer:
    """Accumulates self time, total time and call counts per span name.

    Use as a context manager: ``with tracer:`` installs the wrappers and
    always removes them again, so untraced work before and after runs
    the unmodified program.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        counts = self.counts
        count = _COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                total_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner: object, attr: str, name: str) -> None:
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                return
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, name in _TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self._patch(owner, attr, name)
        from repro.disk.drive import SimDisk
        from repro.memory.system import MemorySystem

        for cls in _with_subclasses(MemorySystem):
            for attr in _MEMORY_METHODS:
                self._patch(cls, attr, "memory.accrual")
        for cls in _with_subclasses(SimDisk):
            self._patch(cls, "submit_run", "disk.submit_run")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- benchmark-side spans ---------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a span opened from the benchmark's own code."""
        return self._wrap(name, fn)(*args, **kwargs)
