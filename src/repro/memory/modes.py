"""RDRAM power modes (paper Fig. 1(a))."""

from __future__ import annotations

import enum


class MemoryMode(enum.Enum):
    """Power modes of one RDRAM bank.

    ``ATTENTION`` is the working mode; ``IDLE``, ``NAP`` and ``POWERDOWN``
    retain data at decreasing power; ``DISABLE`` loses the contents.
    The paper keeps banks in NAP after accesses (the best energy/
    performance trade-off per [13], [14]).
    """

    ATTENTION = "attention"
    IDLE = "idle"
    NAP = "nap"
    POWERDOWN = "powerdown"
    DISABLE = "disable"
