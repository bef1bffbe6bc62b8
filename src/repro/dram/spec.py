"""DRAM device specifications and timing parameters (Sec. II-C, VII-G).

Timing values follow the JEDEC grades the paper evaluates: DDR4-2400R
(x4/x8/x16), LPDDR4, GDDR5 and HBM.  Only the parameters the episode
model consumes are carried; all are in nanoseconds.

The FIM-related geometry (items per scatter/gather, offset- and
data-burst counts) lives on :class:`DRAMConfig`, derived from the device
width and the config's design options exactly as Sec. IV-B and VIII-B
describe: offsets are 16-bit words duplicated across all chips of a
rank, so a rank built from narrower devices needs more offset-write
bursts (Fig. 15), and 32 B-burst devices move four items per operation
instead of eight unless the long-burst design doubles them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.units import KIB, ceil_div, log2_exact

#: Data-bus width of a rank in bytes (64-bit channel for DDR-family).
RANK_BUS_BYTES = 8


@dataclass(frozen=True)
class DeviceSpec:
    """Timing and geometry of one memory device grade.

    Attributes:
        name: grade name, e.g. ``"DDR4_2400_x16"``.
        family: ``"DDR4" | "LPDDR4" | "GDDR5" | "HBM"``.
        device_width_bits: data pins per chip (x4/x8/x16; 128 for HBM).
        burst_bytes: bytes moved by one fixed-length burst (64 for DDR4,
            32 for LPDDR4/GDDR5/HBM -- Sec. VII-G).
        data_rate_gtps: transfer rate in GT/s.
        bus_bytes: rank data-bus width in bytes.
        banks_per_rank: banks addressable per rank.
        row_bytes: bytes in one (rank-wide) DRAM row.
        tRCD/tRP/tRAS/tWR/tCCD/tCL: JEDEC core timings in ns.
    """

    name: str
    family: str
    device_width_bits: int
    burst_bytes: int
    data_rate_gtps: float
    bus_bytes: int
    banks_per_rank: int
    row_bytes: int
    tRCD: float
    tRP: float
    tRAS: float
    tWR: float
    tCCD: float
    tCL: float

    # ------------------------------------------------------------------
    @property
    def chips_per_rank(self) -> int:
        return max(1, (self.bus_bytes * 8) // self.device_width_bits)

    @property
    def tBURST(self) -> float:
        """Data-bus occupancy of one burst in ns."""
        return self.burst_bytes / (self.bus_bytes * self.data_rate_gtps)

    @property
    def tRC(self) -> float:
        """Minimum same-bank ACT-to-ACT interval."""
        return self.tRAS + self.tRP

    @property
    def row_words(self) -> int:
        """8-byte words per row (the FIM offset address space)."""
        return self.row_bytes // 8

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak per-channel bandwidth in GB/s."""
        return self.bus_bytes * self.data_rate_gtps

    @property
    def fim_internal_window(self) -> float:
        """The tWR + tRP + tRCD window that hides the in-bank operation
        (Sec. VI); must cover items x tCCD (:attr:`DRAMConfig.fim_window_ok`)."""
        return self.tWR + self.tRP + self.tRCD

    def validate(self) -> None:
        """Sanity-check geometry; raises ``ValueError`` on nonsense specs."""
        log2_exact(self.burst_bytes)
        log2_exact(self.row_bytes)
        log2_exact(self.banks_per_rank)
        if self.row_bytes < self.burst_bytes:
            raise ValueError("row must hold at least one burst")
        for field_name in ("tRCD", "tRP", "tRAS", "tWR", "tCCD", "tCL"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")


def _ddr4(width: int, banks: int) -> DeviceSpec:
    # DDR4-2400R, 1.2 V: tCK = 0.833 ns, CL17, tRCD = tRP = 16 nCK,
    # tRAS = 32 ns, tWR = 15 ns, tCCD_L = 6 nCK (Sec. VI/VII-A).
    tck = 1 / 1.2
    return DeviceSpec(
        name=f"DDR4_2400_x{width}",
        family="DDR4",
        device_width_bits=width,
        burst_bytes=64,
        data_rate_gtps=2.4,
        bus_bytes=RANK_BUS_BYTES,
        banks_per_rank=banks,
        row_bytes=8 * KIB,
        tRCD=16 * tck,
        tRP=16 * tck,
        tRAS=32.0,
        tWR=15.0,
        tCCD=6 * tck,
        tCL=17 * tck,
    )


DEVICES: dict[str, DeviceSpec] = {
    "DDR4_2400_x16": _ddr4(16, 8),
    "DDR4_2400_x8": _ddr4(8, 16),
    "DDR4_2400_x4": _ddr4(4, 16),
    "LPDDR4_3200": DeviceSpec(
        name="LPDDR4_3200",
        family="LPDDR4",
        device_width_bits=16,
        burst_bytes=32,
        data_rate_gtps=3.2,
        bus_bytes=RANK_BUS_BYTES,
        banks_per_rank=8,
        row_bytes=4 * KIB,
        tRCD=18.0,
        tRP=18.0,
        tRAS=42.0,
        tWR=18.0,
        tCCD=5.0,
        tCL=18.0,
    ),
    "GDDR5_6000": DeviceSpec(
        name="GDDR5_6000",
        family="GDDR5",
        device_width_bits=32,
        burst_bytes=32,
        data_rate_gtps=6.0,
        bus_bytes=RANK_BUS_BYTES,
        banks_per_rank=16,
        row_bytes=2 * KIB,
        tRCD=14.0,
        tRP=14.0,
        tRAS=28.0,
        tWR=15.0,
        tCCD=3.0,
        tCL=15.0,
    ),
    "HBM2_2000": DeviceSpec(
        name="HBM2_2000",
        family="HBM",
        device_width_bits=128,
        burst_bytes=32,
        data_rate_gtps=2.0,
        bus_bytes=16,
        banks_per_rank=16,
        row_bytes=2 * KIB,
        tRCD=14.0,
        tRP=14.0,
        tRAS=33.0,
        tWR=15.0,
        tCCD=2.0,
        tCL=14.0,
    ),
}


@dataclass(frozen=True)
class DRAMConfig:
    """A full memory system: device grade x channels x ranks.

    The paper's default is one channel of four-rank DDR4-2400R x16
    (Sec. VII-A); Fig. 16 sweeps channels/ranks.

    Attributes:
        offset_bits: FIM column-offset width; 16 by default, 11 for the
            enhanced narrow-device design of Sec. VIII-B.
        long_burst_fim: enhanced 32 B-burst design (Sec. VIII-B): the chip
            supports a double-length burst so one operation moves eight
            items.
        rows_per_bank: storage depth; only affects address decoding range.
    """

    spec: DeviceSpec
    channels: int = 1
    ranks: int = 4
    offset_bits: int = 16
    long_burst_fim: bool = False
    rows_per_bank: int = 1 << 16

    def __post_init__(self) -> None:
        self.spec.validate()
        log2_exact(self.channels)
        log2_exact(self.ranks)
        log2_exact(self.rows_per_bank)
        if not 1 <= self.offset_bits <= 16:
            raise ValueError("offset_bits must be in [1, 16]")

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks * self.spec.banks_per_rank

    @property
    def capacity_bytes(self) -> int:
        return self.total_banks * self.rows_per_bank * self.spec.row_bytes

    @property
    def peak_bandwidth_gbps(self) -> float:
        return self.channels * self.spec.peak_bandwidth_gbps

    # Piccolo-FIM geometry under this config's design options ----------
    # (Sec. IV-B, Sec. VIII-B)
    @property
    def fim_items_per_op(self) -> int:
        """8-byte items moved by one scatter/gather: 8 for 64 B bursts,
        4 for 32 B bursts, 8 on any device under ``long_burst_fim``."""
        if self.long_burst_fim:
            return 8
        return max(1, self.spec.burst_bytes // 8)

    @property
    def fim_offset_bursts(self) -> int:
        """Bursts needed to broadcast the offsets to every chip.

        Offsets are duplicated across all chips of the rank (Sec. IV-B):
        total bits = items x offset_bits x chips.  Under
        ``long_burst_fim`` one double-length burst carries them.
        """
        total_bits = (
            self.fim_items_per_op * self.offset_bits * self.spec.chips_per_rank
        )
        burst_bits = self.spec.burst_bytes * 8 * (2 if self.long_burst_fim else 1)
        return ceil_div(total_bits, burst_bits)

    @property
    def fim_data_bursts(self) -> int:
        """Bursts to move the gathered/scattered items themselves."""
        return ceil_div(self.fim_items_per_op * 8, self.spec.burst_bytes)

    @property
    def fim_window_ok(self) -> bool:
        """Whether the internal scatter/gather fits the virtual-row window
        without stretching tWR (Sec. VI adjusts tWR otherwise)."""
        return self.fim_items_per_op * self.spec.tCCD <= self.spec.fim_internal_window


def default_config(**overrides) -> DRAMConfig:
    """The paper's default memory system (Sec. VII-A)."""
    base = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1, ranks=4)
    return replace(base, **overrides) if overrides else base
