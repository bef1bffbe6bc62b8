"""CACTI-7-style analytic SRAM model.

The paper measures cache/MSHR energy and area with CACTI 7.0 at 22 nm
(Sec. VII-F).  Full CACTI solves a detailed circuit optimisation; the
figures only need *relative* energies with believable magnitudes, so this
model uses the standard first-order scaling laws CACTI itself is built
around:

- dynamic energy per access grows ~ sqrt(capacity) (bitline/wordline
  length) and linearly with associativity probed,
- leakage power grows linearly with bits,
- area grows linearly with bits (6T cell + array overhead).

Constants are anchored to published CACTI 22 nm data points (a 4 MB 8-way
cache reads at roughly 0.2 nJ; 6T SRAM cell ~0.05 um^2 at 22 nm).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

#: anchor: per-access dynamic energy of a 4 MB, 8-way, 64 B-line array
ANCHOR_CAPACITY_BYTES = 4 * 1024 * 1024
ANCHOR_DYNAMIC_NJ = 0.20
#: leakage per bit at 22 nm (W/bit)
LEAKAGE_W_PER_BIT = 1.5e-11
#: 6T cell + array overhead, um^2 per bit at 22 nm
AREA_UM2_PER_BIT = 0.062


@dataclass(frozen=True)
class SRAMModel:
    """Energy/area of one SRAM array (data or tag).

    Args:
        capacity_bytes: array capacity.
        ways_probed: associativity read per access (Piccolo's sequential
            way search probes ~1 way on average; a parallel-lookup cache
            probes all of them).
        access_bytes: bytes moved per access (energy scales weakly with
            port width; included for completeness).
    """

    capacity_bytes: int
    ways_probed: float = 8.0
    access_bytes: int = 64

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.ways_probed <= 0:
            raise ValueError("ways_probed must be positive")

    @property
    def dynamic_nj_per_access(self) -> float:
        """Per-access dynamic energy in nJ (sqrt-capacity scaling)."""
        size_factor = math.sqrt(self.capacity_bytes / ANCHOR_CAPACITY_BYTES)
        way_factor = self.ways_probed / 8.0
        width_factor = math.sqrt(self.access_bytes / 64.0)
        return ANCHOR_DYNAMIC_NJ * size_factor * way_factor * width_factor

    @property
    def leakage_w(self) -> float:
        return self.capacity_bytes * 8 * LEAKAGE_W_PER_BIT

    @property
    def area_mm2(self) -> float:
        return self.capacity_bytes * 8 * AREA_UM2_PER_BIT * 1e-6

    def access_energy_nj(self, accesses: float) -> float:
        return accesses * self.dynamic_nj_per_access

    def leakage_energy_nj(self, duration_ns: float) -> float:
        return self.leakage_w * duration_ns  # W * ns = nJ
