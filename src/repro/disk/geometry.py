"""Zoned platter geometry: LBA <-> physical location.

The analytic service model (:mod:`repro.disk.service`) prices requests
from calibrated averages, which is what the paper consumes.  This module
provides the DiskSim-fidelity alternative underneath it: a zoned drive
where outer cylinders hold more sectors than inner ones (zone-bit
recording), so both the media rate and the seek distance of a request
depend on *where* the data lives.

The sectors-per-track profile falls linearly from the outermost to the
innermost cylinder, the standard first-order model of zoned recording;
cumulative capacity is then quadratic in the cylinder index and can be
inverted in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

SECTOR_BYTES = 512


@dataclass(frozen=True)
class DiskGeometry:
    """Physical layout of a zoned drive.

    Defaults approximate the paper's 160-GB 7200-rpm Barracuda:
    ~90 k cylinders x 4 heads, with outer tracks holding roughly twice
    the sectors of inner ones.
    """

    num_cylinders: int = 90_000
    num_heads: int = 4
    sectors_outer: int = 1170
    sectors_inner: int = 585
    sector_bytes: int = SECTOR_BYTES

    def __post_init__(self) -> None:
        if self.num_cylinders < 2:
            raise ConfigError("need at least two cylinders")
        if self.num_heads < 1:
            raise ConfigError("need at least one head")
        if not 0 < self.sectors_inner <= self.sectors_outer:
            raise ConfigError("sector counts must satisfy 0 < inner <= outer")
        if self.sector_bytes <= 0:
            raise ConfigError("sector size must be positive")

    # --- per-cylinder profile ---------------------------------------------------

    def sectors_per_track(self, cylinder: int) -> float:
        """Linearly interpolated sectors on one track of ``cylinder``."""
        self._check_cylinder(cylinder)
        fraction = cylinder / (self.num_cylinders - 1)
        return self.sectors_outer - fraction * (
            self.sectors_outer - self.sectors_inner
        )

    def cylinder_sectors(self, cylinder: int) -> float:
        """Sectors on all tracks of one cylinder."""
        return self.sectors_per_track(cylinder) * self.num_heads

    # --- cumulative capacity ------------------------------------------------------

    @property
    def total_sectors(self) -> int:
        """Whole-drive sector count (exact sum of the linear profile)."""
        mean_track = (self.sectors_outer + self.sectors_inner) / 2.0
        return int(mean_track * self.num_heads * self.num_cylinders)

    @property
    def capacity_bytes(self) -> int:
        return self.total_sectors * self.sector_bytes

    def sectors_before(self, cylinder: int) -> float:
        """Sectors on all cylinders strictly outside ``cylinder``.

        Closed form of the arithmetic series: with per-cylinder count
        ``s(c) = s0 - d*c`` (``d`` the per-cylinder decline),
        ``sum_{c<k} s(c) = k*s0 - d*k*(k-1)/2``.
        """
        self._check_cylinder(cylinder)
        s0 = self.sectors_outer * self.num_heads
        decline = (
            (self.sectors_outer - self.sectors_inner)
            * self.num_heads
            / (self.num_cylinders - 1)
        )
        k = cylinder
        return k * s0 - decline * k * (k - 1) / 2.0

    def cylinder_of_lba(self, lba: int) -> int:
        """Cylinder holding logical block ``lba`` (outside-in numbering).

        Inverts the quadratic cumulative-capacity curve, then corrects
        for rounding at the boundary.
        """
        if not 0 <= lba < self.total_sectors:
            raise ConfigError(f"LBA {lba} outside the drive")
        s0 = self.sectors_outer * self.num_heads
        decline = (
            (self.sectors_outer - self.sectors_inner)
            * self.num_heads
            / (self.num_cylinders - 1)
        )
        if decline == 0:
            cylinder = int(lba // s0)
        else:
            # Solve k*s0 - d*k*(k-1)/2 = lba for k.
            a = -decline / 2.0
            b = s0 + decline / 2.0
            c = -float(lba)
            discriminant = b * b - 4 * a * c
            k = (-b + math.sqrt(max(discriminant, 0.0))) / (2 * a)
            cylinder = int(k)
        cylinder = min(max(cylinder, 0), self.num_cylinders - 1)
        # Boundary correction (float error): walk to the owning cylinder.
        while cylinder > 0 and self.sectors_before(cylinder) > lba:
            cylinder -= 1
        while (
            cylinder < self.num_cylinders - 1
            and self.sectors_before(cylinder + 1) <= lba
        ):
            cylinder += 1
        return cylinder

    def lba_of_byte(self, offset: int) -> int:
        """LBA holding byte ``offset``."""
        if offset < 0 or offset >= self.capacity_bytes:
            raise ConfigError(f"byte offset {offset} outside the drive")
        return offset // self.sector_bytes

    def media_rate_at(self, cylinder: int, rpm: float) -> float:
        """Sustained bytes/second while streaming at ``cylinder``."""
        if rpm <= 0:
            raise ConfigError("rpm must be positive")
        revolutions_per_s = rpm / 60.0
        # One head transfers at a time: a revolution moves one track.
        return self.sectors_per_track(cylinder) * self.sector_bytes * revolutions_per_s

    def _check_cylinder(self, cylinder: int) -> None:
        if not 0 <= cylinder < self.num_cylinders:
            raise ConfigError(
                f"cylinder {cylinder} outside [0, {self.num_cylinders})"
            )
