"""Validation: FIM on the engine's own command traces, and Fig. 9.

The paper validates Piccolo-FIM's DDR4 compatibility on an FPGA platform
(ALVEO U280 with a DDR4 memory controller, Sec. VII-B).  Offline, the
equivalent evidence comes from the command-level engine
(:mod:`repro.validate.end_to_end`): its Sec. VI virtual-row traces must
(a) hold only standard commands, (b) pass every JEDEC rule of
:class:`~repro.dram.engine.checker.TraceChecker`, (c) leave the
internal scatter/gather its ``offset_count x tCCD_L`` window, and (d)
move data bit-exactly through the functional FIM bank.
"""

from repro.validate.microbench import strided_microbenchmark, MicrobenchResult

__all__ = [
    "strided_microbenchmark",
    "MicrobenchResult",
]
