"""Access schedules for the batched-accrual property tests.

A schedule is a time-ordered stream cut into segments.  Each segment is
replayed either as one batch or access by access, and may be preceded
by a ``checkpoint`` anywhere between its neighbours' times.  Times sit
on a quarter-second grid (or a 0.1-s one, whose sums round), so
same-bank accesses tie and land exactly on ``last + timeout``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st


@st.composite
def schedules(draw, pages: int = 12):
    n = draw(st.integers(min_value=1, max_value=60))
    steps = draw(
        st.lists(
            st.sampled_from([0, 0, 1, 2, 3, 8, 40]), min_size=n, max_size=n
        )
    )
    unit = draw(st.sampled_from([0.25, 0.1]))
    times = np.cumsum(np.array(steps, dtype=np.float64) * unit)
    page_ids = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=pages - 1),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=6)
    )
    bounds = sorted({0, n, *(c for c in cuts if c < n)})
    segments = [
        (
            lo,
            hi,
            draw(st.sampled_from(["batch", "singles"])),
            draw(st.sampled_from([None, "previous", "between", "next"])),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return times, page_ids, segments


def checkpoint_time(times, lo: int, where: str) -> float:
    """A checkpoint time between access ``lo - 1`` (or 0) and access ``lo``."""
    previous = float(times[lo - 1]) if lo else 0.0
    following = float(times[lo])
    return {
        "previous": previous,
        "between": (previous + following) / 2,
        "next": following,
    }[where]


def assert_same_energy(a, b) -> None:
    """Every energy bucket bit-equal (``==`` on floats, no tolerance)."""
    for name in ("static_j", "dynamic_j", "transition_j"):
        assert getattr(a.energy, name) == getattr(b.energy, name), name
    assert a.energy.transitions == b.energy.transitions
    assert a.energy.accesses == b.energy.accesses
