"""Per-command DRAM energy from command-level engine traces.

The phase-level model (:mod:`repro.energy.dram_energy`) charges energy
from aggregate counters.  This module walks an actual
:class:`~repro.dram.engine.engine.EngineResult` command trace and
charges every ACT/PRE pair, column access, data burst and refresh
individually -- the DRAMPower-style accounting the engine's fidelity
makes possible.  Virtual-row commands are split physically: offset and
data-buffer bursts pay I/O but only buffer-sized array energy, the
no-op'd virtual PRE/ACT pairs pay nothing in the array, and the in-bank
column walk of each gather/scatter pays word-width array energy.

The two models are cross-checked in ``tests/test_trace_energy.py``:
on identical workloads they must agree on the ordering (FIM saves I/O)
and roughly on magnitude.
"""

from __future__ import annotations

from repro.dram.engine.commands import DATA_BUFFER_COLUMN, CommandType
from repro.dram.engine.engine import EngineResult
from repro.energy.dram_energy import (
    ACT_NJ,
    BACKGROUND_W_PER_RANK,
    EnergyBreakdown,
    FIM_INTERNAL_NJ_PER_WORD,
    IO_NJ_PER_BURST,
    RD_ARRAY_NJ,
    WR_ARRAY_NJ,
)

#: refresh: all banks of a rank charge/restore once per REF
REFRESH_NJ = 8 * ACT_NJ
#: buffer read/write array energy (tiny SRAM next to the sense amps)
BUFFER_ACCESS_NJ = 0.1


def trace_energy(result: EngineResult, fim_items: int = 8,
                 burst_bytes: int = 64) -> EnergyBreakdown:
    """Charge one engine run command by command."""
    scale = burst_bytes / 64.0
    out = EnergyBreakdown()
    ranks_seen: set[tuple[int, int]] = set()
    for channel, trace in enumerate(result.traces):
        for cmd in trace:
            ranks_seen.add((channel, cmd.rank))
            if cmd.kind is CommandType.REF:
                out.others += REFRESH_NJ
            elif cmd.kind is CommandType.ACT:
                if not cmd.virtual:
                    # Half on the open, half on the restoring precharge.
                    out.dram_rd += ACT_NJ * 0.5
                    out.dram_wr += ACT_NJ * 0.5
            elif cmd.kind is CommandType.PRE:
                pass  # charged with its ACT
            elif cmd.kind is CommandType.RD:
                if cmd.virtual:
                    # Data-buffer read: I/O burst + buffer access + the
                    # in-bank gather column walk it completes.
                    out.dram_io += IO_NJ_PER_BURST * scale
                    out.dram_rd += BUFFER_ACCESS_NJ
                    out.dram_rd += fim_items * FIM_INTERNAL_NJ_PER_WORD
                else:
                    out.dram_rd += RD_ARRAY_NJ * scale
                    out.dram_io += IO_NJ_PER_BURST * scale
            elif cmd.kind is CommandType.WR:
                if cmd.virtual:
                    out.dram_wr += BUFFER_ACCESS_NJ
                    if cmd.data_clocks:
                        out.dram_io += IO_NJ_PER_BURST * scale
                    if cmd.column == DATA_BUFFER_COLUMN:
                        # Scatter payload: the in-bank column walk runs
                        # once the buffers are armed.
                        out.dram_wr += fim_items * FIM_INTERNAL_NJ_PER_WORD
                else:
                    out.dram_wr += WR_ARRAY_NJ * scale
                    out.dram_io += IO_NJ_PER_BURST * scale
    out.others += (
        BACKGROUND_W_PER_RANK * max(1, len(ranks_seen)) * result.time_ns
    )
    return out


def compare_fim_vs_conventional(result_fim: EngineResult,
                                result_conv: EngineResult,
                                fim_items: int = 8,
                                burst_bytes: int = 64) -> dict[str, float]:
    """Headline ratios for one workload run both ways."""
    fim = trace_energy(result_fim, fim_items, burst_bytes)
    conv = trace_energy(result_conv, fim_items, burst_bytes)
    return {
        "io_ratio": fim.dram_io / conv.dram_io if conv.dram_io else 0.0,
        "total_ratio": fim.total / conv.total if conv.total else 0.0,
        "fim_total_nj": fim.total,
        "conv_total_nj": conv.total,
    }
