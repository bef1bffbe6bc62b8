"""DRAM substrate: device specs, address mapping, command-level timing.

The model is an event/episode-driven *throughput* model at DRAM-command
granularity (see docs/ARCHITECTURE.md): per-bank row-episode service times honour
tRCD/tRP/tRAS/tCCD/tWR, the shared data bus is charged per burst, and a
phase's memory time is the binding resource (slowest bank vs. busiest
channel bus).  This reproduces the quantities Piccolo's evaluation is
about -- transaction counts, bank/bus occupancy, activation counts --
without per-cycle simulation.
"""

from repro.dram.spec import DeviceSpec, DEVICES, DRAMConfig
from repro.dram.address import AddressMapper
from repro.dram.fim_batch import FimOpBatch
from repro.dram.system import DRAMModel, PhaseAccumulator, PhaseStats

__all__ = [
    "DeviceSpec",
    "DEVICES",
    "DRAMConfig",
    "AddressMapper",
    "DRAMModel",
    "PhaseAccumulator",
    "PhaseStats",
    "FimOpBatch",
]
