"""Physical-unit constants and converters.

Everything in the simulator uses a single base unit per dimension:

* time     -- seconds (float)
* size     -- bytes (int where exactness matters, float otherwise)
* power    -- watts
* energy   -- joules

The constants here exist so that code reads ``16 * MB`` instead of
``16777216`` and ``10 * MINUTES`` instead of ``600.0``.
"""

from __future__ import annotations

# --- sizes (binary, as used by the paper's memory/disk specs) ---------------
KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB

#: Operating-system page size used throughout the paper (4 kB).
PAGE_SIZE: int = 4 * KB

# --- times -------------------------------------------------------------------
MICROSECONDS: float = 1e-6
MILLISECONDS: float = 1e-3
SECONDS: float = 1.0
MINUTES: float = 60.0
HOURS: float = 3600.0

# --- power / energy ----------------------------------------------------------
MILLIWATTS: float = 1e-3
WATTS: float = 1.0
MILLIJOULES: float = 1e-3
JOULES: float = 1.0


def mb(size_bytes: float) -> float:
    """Express a byte count in mebibytes (for display)."""
    return size_bytes / MB


def gb(size_bytes: float) -> float:
    """Express a byte count in gibibytes (for display)."""
    return size_bytes / GB
