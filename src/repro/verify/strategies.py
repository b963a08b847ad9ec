"""Input generators for the differential verifier.

Two families, one module:

* **Hypothesis strategies** (``*_patterns``, ``*_specs``, ``machine_configs``)
  for the property-based tests under ``tests/verify/`` -- Hypothesis owns
  shrinking and example management there.
* **Seeded generators** (:func:`random_case`, :func:`random_small_machine`)
  for the ``repro verify`` CLI runner -- plain ``numpy`` RNG so that a
  seed number alone reproduces a failure, with the runner's own
  delta-debugging minimiser standing in for Hypothesis shrinking.

The adversarial access patterns target the invariants most likely to
break under optimisation: working sets sized exactly at the stack
tracker's compaction boundary, all-cold streams (every distance is
``COLD``), single-page loops (every distance is 0), and bursty arrival
processes that straddle the aggregation window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

try:
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised only without hypothesis

    class _MissingHypothesis:
        """Lazy failure: the seeded generators below stay importable (the
        ``repro verify`` runner needs no Hypothesis); only actually using
        a strategy raises."""

        def _fail(self, *args, **kwargs):
            raise ImportError(
                "hypothesis is not installed; the property-test strategies "
                "are unavailable (the seeded `repro verify` runner still is)"
            )

        def composite(self, fn):
            del fn
            return self._fail

        def __getattr__(self, name):
            return self._fail

    st = _MissingHypothesis()

from repro.config.disk_spec import DiskSpec
from repro.config.machine import MachineConfig, paper_machine
from repro.config.manager import ManagerConfig
from repro.config.memory_spec import MemorySpec
from repro.units import MB

# --- Hypothesis: access patterns --------------------------------------------


def page_ids(max_page: int = 50) -> st.SearchStrategy[int]:
    return st.integers(min_value=0, max_value=max_page)


def random_patterns(max_size: int = 300) -> st.SearchStrategy[List[int]]:
    """Uniformly random page streams."""
    return st.lists(page_ids(), max_size=max_size)


def all_cold_streams(max_size: int = 200) -> st.SearchStrategy[List[int]]:
    """Strictly fresh pages: every access must come back COLD."""
    return st.integers(min_value=0, max_value=max_size).map(
        lambda n: list(range(n))
    )


def single_page_loops(max_repeats: int = 200) -> st.SearchStrategy[List[int]]:
    """The same page over and over: distance 0 after the first access."""
    return st.tuples(
        page_ids(), st.integers(min_value=1, max_value=max_repeats)
    ).map(lambda pair: [pair[0]] * pair[1])


def working_set_loops(
    boundary: int = 8, max_laps: int = 40
) -> st.SearchStrategy[List[int]]:
    """Cyclic scans with working sets straddling a compaction boundary.

    With a tracker built at ``initial_capacity=boundary``, these loops
    force compaction every ``boundary`` accesses -- exactly where an
    off-by-one in the renumbering would surface.
    """
    return st.tuples(
        st.integers(min_value=1, max_value=boundary * 2 + 1),
        st.integers(min_value=1, max_value=max_laps),
    ).map(lambda pair: [i % pair[0] for i in range(pair[0] * pair[1])])


def access_patterns(max_size: int = 300) -> st.SearchStrategy[List[int]]:
    """The union the property tests fuzz over: random plus adversarial."""
    return st.one_of(
        random_patterns(max_size),
        all_cold_streams(min(max_size, 200)),
        single_page_loops(min(max_size, 200)),
        working_set_loops(),
    )


# --- Hypothesis: hardware specs -----------------------------------------------


@st.composite
def disk_specs(draw) -> DiskSpec:
    """Physically consistent drive specs (powers ordered, times summing)."""
    standby = draw(st.floats(min_value=0.1, max_value=2.0))
    static = draw(st.floats(min_value=1.0, max_value=10.0))
    dynamic = draw(st.floats(min_value=0.5, max_value=8.0))
    idle = standby + static
    active = idle + dynamic
    spin_down = draw(st.floats(min_value=0.5, max_value=5.0))
    spin_up = draw(st.floats(min_value=1.0, max_value=15.0))
    energy = draw(st.floats(min_value=5.0, max_value=200.0))
    return dataclasses.replace(
        DiskSpec(),
        mode_power_watts={
            "active": active,
            "idle": idle,
            "standby": standby,
            "sleep": standby,
        },
        transition_energy_joules=energy,
        transition_time_s=spin_down + spin_up,
        spin_down_time_s=spin_down,
        spin_up_time_s=spin_up,
    )


@st.composite
def memory_specs(draw) -> MemorySpec:
    """Bank/page geometries satisfying every MemorySpec invariant."""
    page_shift = draw(st.integers(min_value=12, max_value=14))  # 4-16 kB
    page = 1 << page_shift
    pages_per_bank = 1 << draw(st.integers(min_value=0, max_value=12))
    bank = page * pages_per_bank
    banks = draw(st.integers(min_value=1, max_value=64))
    return dataclasses.replace(
        MemorySpec(),
        installed_bytes=bank * banks,
        bank_bytes=bank,
        page_bytes=page,
    )


@st.composite
def manager_configs(draw, bank_bytes: int = 16 * MB) -> ManagerConfig:
    """Manager parameters whose enumeration unit fits the given bank."""
    unit = bank_bytes * draw(st.integers(min_value=1, max_value=4))
    return ManagerConfig(
        period_s=draw(st.floats(min_value=60.0, max_value=1200.0)),
        aggregation_window_s=draw(st.floats(min_value=0.0, max_value=1.0)),
        max_utilization=draw(st.floats(min_value=0.05, max_value=1.0)),
        max_delayed_ratio=draw(st.floats(min_value=1e-4, max_value=1.0)),
        enumeration_unit_bytes=unit,
        min_memory_bytes=unit,
        max_candidates=draw(st.integers(min_value=2, max_value=32)),
    )


@st.composite
def machine_configs(draw) -> MachineConfig:
    """Complete machines: memory x disk x manager, mutually consistent."""
    memory = draw(memory_specs())
    manager = draw(manager_configs(bank_bytes=memory.bank_bytes))
    if manager.min_memory_bytes > memory.installed_bytes:
        manager = dataclasses.replace(
            manager,
            enumeration_unit_bytes=memory.bank_bytes,
            min_memory_bytes=memory.bank_bytes,
        )
    return MachineConfig(memory=memory, disk=draw(disk_specs()), manager=manager)


# --- seeded cases for the CLI runner ------------------------------------------


@dataclass(frozen=True)
class VerifyCase:
    """One fuzzed workload: what a single seed deterministically expands to."""

    seed: int
    times: np.ndarray
    pages: np.ndarray
    #: Aggregation window used for interval/predictor checks, seconds.
    window_s: float
    #: Observation horizon; covers every access with an idle tail.
    period_s: float
    #: Human-readable pattern name, for divergence reports.
    pattern: str

    @property
    def accesses(self) -> List[Tuple[float, int]]:
        return list(zip(self.times.tolist(), self.pages.tolist()))


#: Pattern names in the order ``random_case`` draws them.
PATTERNS = ("uniform", "all-cold", "single-page-loop", "working-set-loop", "hot-cold")


def random_case(seed: int, max_accesses: int = 300) -> VerifyCase:
    """Deterministically expand ``seed`` into a fuzzed access stream.

    Cycles through five pattern families -- uniform random, all-cold
    streams, single-page loops, working-set loops sized around the stack
    tracker's compaction boundary, and hot/cold mixtures -- with bursty
    arrivals (60% of gaps inside the aggregation window).
    """
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(0, len(PATTERNS)))
    n = int(rng.integers(1, max(max_accesses, 2)))
    if kind == 0:
        pages = rng.integers(0, 40, size=n)
    elif kind == 1:
        pages = np.arange(n)
    elif kind == 2:
        pages = np.full(n, int(rng.integers(0, 5)))
    elif kind == 3:
        # Working sets straddling the verifier's compaction boundary (the
        # differential runner builds trackers with initial_capacity=8).
        working_set = int(rng.choice([3, 4, 7, 8, 9, 15, 16, 17]))
        pages = np.arange(n) % working_set
    else:
        hot = rng.integers(0, 4, size=n)
        cold = rng.integers(4, 400, size=n)
        pages = np.where(rng.random(n) < 0.7, hot, cold)

    bursty = rng.random(n) < 0.6
    gaps = np.where(
        bursty, rng.exponential(0.03, size=n), rng.exponential(25.0, size=n)
    )
    times = np.cumsum(gaps)
    window = float(rng.choice([0.0, 0.1, 1.0]))
    period = float(times[-1]) + float(rng.exponential(30.0)) + 1.0
    return VerifyCase(
        seed=seed,
        times=times,
        pages=pages.astype(np.int64),
        window_s=window,
        period_s=period,
        pattern=PATTERNS[kind],
    )


def random_small_machine(seed: int, rng: Optional[np.random.Generator] = None) -> MachineConfig:
    """A paper-hardware machine shrunk so grid oracles stay affordable.

    4-MB pages (scale 1024), a 64-MB bank/enumeration unit, a few hundred
    MB installed and at most a dozen candidate sizes: small enough that
    the exhaustive ``(m, t_o)`` oracle runs in milliseconds, yet every
    code path of the joint manager (fits, fallbacks, constraints) is
    reachable.
    """
    if rng is None:
        rng = np.random.default_rng(seed ^ 0x5EED)
    base = paper_machine().scaled(1024)
    bank = 64 * MB
    banks = int(rng.integers(4, 13))
    memory = dataclasses.replace(
        base.memory, installed_bytes=bank * banks, bank_bytes=bank
    )
    manager = dataclasses.replace(
        base.manager,
        period_s=float(rng.choice([120.0, 300.0, 600.0])),
        aggregation_window_s=float(rng.choice([0.0, 0.1, 0.5])),
        enumeration_unit_bytes=bank,
        min_memory_bytes=bank,
        max_candidates=int(rng.integers(4, 13)),
    )
    return MachineConfig(
        memory=memory, disk=base.disk, manager=manager, scale=base.scale
    )
