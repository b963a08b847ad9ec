"""RDRAM memory parameters (paper Fig. 1(a) and Section V-A).

The paper models a 128-Mb (16-MB) RDRAM chip.  One chip is one *bank*, the
smallest unit with independent power modes, so the bank is the unit by which
the joint manager resizes the disk cache.

Derived constants, with the paper's arithmetic:

* static power        ``10.5 mW / 16 MB = 0.656 mW/MB``        (nap mode)
* dynamic energy      ``1325 mW / (1.6 GB/s) = 0.809 mJ/MB``   (peak rate)
* power-down timeout  ``1325 * 30 / (312 - 3.5) = 129 us``     (2-competitive)
* disable break-even  ``(5 W * 16 MB / 10.4 MB/s) / 10.5 mW = 732 s``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError
from repro.units import GB, MB, MICROSECONDS, MILLIWATTS, PAGE_SIZE


@dataclass(frozen=True)
class MemorySpec:
    """Power and geometry parameters of the RDRAM main memory.

    All powers are in watts, energies in joules, times in seconds and
    sizes in bytes.  The defaults reproduce the paper's configuration:
    128 GB of installed RDRAM built from 16-MB banks.
    """

    #: Total installed physical memory available to the disk cache.
    installed_bytes: int = 128 * GB
    #: Size of one bank, the resize/power-mode granularity.  The paper's
    #: default bank is one chip; Table V varies this up to 1024 MB (a rank
    #: of chips switched together).
    bank_bytes: int = 16 * MB
    #: Size of the RDRAM chip the per-mode powers are specified for.
    chip_bytes: int = 16 * MB
    #: Operating-system page size.
    page_bytes: int = PAGE_SIZE

    #: Mode powers for one *chip* (``chip_bytes``), from Fig. 1(a).  A
    #: bank larger than a chip draws proportionally more (it gangs
    #: several chips).
    mode_power_watts: Dict[str, float] = field(
        default_factory=lambda: {
            "attention": 312.0 * MILLIWATTS,
            "idle": 110.0 * MILLIWATTS,
            "nap": 10.5 * MILLIWATTS,
            "powerdown": 3.5 * MILLIWATTS,
            "disable": 0.0,
        }
    )
    #: Power of one bank while serving accesses at the peak rate.
    peak_power_watts: float = 1325.0 * MILLIWATTS
    #: Peak bandwidth of one bank.
    peak_bandwidth_bytes_per_s: float = 1.6 * GB

    #: Transition latencies *to the attention mode*, from Fig. 1(a).  The
    #: disable -> attention time is estimated with the power-down value
    #: because the datasheet does not provide it (paper Section III).
    transition_time_s: Dict[str, float] = field(
        default_factory=lambda: {
            "idle": 12.5e-9,
            "nap": 50e-9,
            "powerdown": 9.0 * MICROSECONDS,
            "disable": 9.0 * MICROSECONDS,
        }
    )

    def __post_init__(self) -> None:
        if self.installed_bytes <= 0:
            raise ConfigError("installed memory must be positive")
        if self.bank_bytes <= 0 or self.bank_bytes > self.installed_bytes:
            raise ConfigError(
                f"bank size {self.bank_bytes} must be in (0, installed="
                f"{self.installed_bytes}]"
            )
        if self.installed_bytes % self.bank_bytes:
            raise ConfigError("installed memory must be a whole number of banks")
        if self.bank_bytes % self.page_bytes:
            raise ConfigError("bank size must be a whole number of pages")
        if self.chip_bytes <= 0:
            raise ConfigError("chip size must be positive")

    # --- derived quantities (paper Section V-A arithmetic) -------------------

    @property
    def num_banks(self) -> int:
        """Number of independently power-managed banks."""
        return self.installed_bytes // self.bank_bytes

    @property
    def pages_per_bank(self) -> int:
        """Number of OS pages held by one bank."""
        return self.bank_bytes // self.page_bytes

    @property
    def static_power_per_mb(self) -> float:
        """Static (nap-mode) power per MB of enabled memory, in watts.

        Paper: ``10.5 mW / 16 MB = 0.656 mW/MB``.
        """
        return self.mode_power_watts["nap"] / (self.chip_bytes / MB)

    @property
    def static_power_per_byte(self) -> float:
        """Static (nap-mode) power per byte of enabled memory, in watts."""
        return self.mode_power_watts["nap"] / self.chip_bytes

    def bank_power(self, mode: str) -> float:
        """Power of one whole bank in ``mode``, in watts."""
        if mode not in self.mode_power_watts:
            raise ConfigError(f"unknown memory mode {mode!r}")
        chips_per_bank = self.bank_bytes / self.chip_bytes
        return self.mode_power_watts[mode] * chips_per_bank

    @property
    def dynamic_energy_per_byte(self) -> float:
        """Energy per byte read or written, in joules.

        Paper: ``1325 mW / 1.6 GB/s = 0.809 mJ/MB``.
        """
        return self.peak_power_watts / self.peak_bandwidth_bytes_per_s

    @property
    def dynamic_energy_per_access(self) -> float:
        """Energy of one page-sized memory access, in joules."""
        return self.dynamic_energy_per_byte * self.page_bytes

    @property
    def powerdown_timeout_s(self) -> float:
        """Two-competitive timeout to power a bank down, in seconds.

        Break-even of the nap -> power-down decision.  The paper charges
        the transition at the bank's *peak* power because the datasheet
        gives no transition energy: ``1325 mW * 30 us / (312 - 3.5) mW
        = 129 us`` (Section V-A).
        """
        round_trip = 30e-6  # power-down <-> attention round trip, paper's value
        saving = (
            self.mode_power_watts["attention"] - self.mode_power_watts["powerdown"]
        )
        return self.peak_power_watts * round_trip / saving
