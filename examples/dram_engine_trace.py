#!/usr/bin/env python3
"""Command-level walkthrough of one Piccolo-FIM gather.

Runs the cycle-accurate DRAM engine on a tiny workload -- an in-row
gather plus two reads of the same row -- and prints the resulting DDR
command trace with annotations, demonstrating:

- the Sec. VI virtual-row sequence (WR offsets, PRE, ACT, RD data)
  built from standard commands only,
- the ``tWR + tRP + tRCD`` window hiding the 8 x tCCD_L in-bank
  operation,
- the physically open row surviving the virtual PRE/ACT pair (the
  trailing read is a row hit -- no second real ACT),
- the trace checker accepting the trace,
- the trace driving a functional FIM bank: the gather returns the
  row's words bit-exactly.

Then it reproduces the Fig. 9 single-row speedup series on the engine.

Run:  python examples/dram_engine_trace.py
"""

import numpy as np

from repro.core.fim import FimBank
from repro.dram.engine import (
    DRAMEngine,
    Request,
    RequestType,
    check_engine_result,
)
from repro.dram.engine.xval import microbench_speedups
from repro.dram.spec import default_config
from repro.validate.end_to_end import replay_fim_trace


def main() -> None:
    config = default_config()
    engine = DRAMEngine(config, refresh_enabled=False)
    timing = engine.timing
    window = timing.tWR + timing.tRP + timing.tRCD
    print(f"device: {timing.name}  (tCK = {timing.tck_ns:.3f} ns)")
    print(f"virtual-row window tWR+tRP+tRCD = {window} nCK "
          f"({timing.ns(window):.2f} ns) hides "
          f"8 x tCCD_L = {8 * timing.tCCD_L} nCK "
          f"({timing.ns(8 * timing.tCCD_L):.2f} ns)\n")

    offsets = (3, 97, 511, 640, 711, 800, 901, 1000)
    requests = [
        Request(RequestType.READ, rank=0, bank=0, row=5, column=0,
                req_id=0),
        Request(RequestType.GATHER, rank=0, bank=0, row=5,
                offsets=offsets, req_id=1),
        Request(RequestType.READ, rank=0, bank=0, row=5, column=9,
                req_id=2),
    ]
    result = engine.run(requests)

    print(f"{'cycle':>6}  {'ns':>8}  {'cmd':<4} {'virt':<5} "
          f"{'row':>5} {'col':>4}  note")
    notes = {
        ("ACT", False): "open target row 5 (real activation)",
        ("RD", False): "ordinary row-hit read",
        ("WR", True): "offsets into the offset buffer (data bus)",
        ("PRE", True): "virtual precharge -> translated to no-op",
        ("ACT", True): "virtual activate -> no-op, row 5 stays open",
        ("RD", True): "gathered words out of the data buffer",
    }
    for cmd in result.traces[0]:
        note = notes.get((cmd.kind.value, cmd.virtual), "")
        print(f"{cmd.cycle:>6}  {result.timing.ns(cmd.cycle):>8.2f}  "
              f"{cmd.kind.value:<4} {str(cmd.virtual):<5} "
              f"{cmd.row if cmd.row is not None else '-':>5} "
              f"{cmd.column if cmd.column is not None else '-':>4}  "
              f"{note}")

    real_acts = sum(
        1 for cmd in result.traces[0]
        if cmd.kind.value == "ACT" and not cmd.virtual
    )
    print(f"\nreal activations: {real_acts} "
          f"(the post-gather read row-hits the surviving row)")
    checked = check_engine_result(result)
    print(f"protocol check: {checked} commands clean")

    # Replay the trace through a functional bank whose row 5 holds the
    # squares of the word index.
    bank = FimBank(config, rows=8)
    bank.cells[5] = np.arange(config.spec.row_words, dtype=np.uint64) ** 2
    gathered = replay_fim_trace(bank, result, values={})[1]
    assert gathered == [o * o for o in offsets], "gather must be bit-exact"
    print(f"functional bank: gathered {gathered} (bit-exact)\n")

    print("Fig. 9 single-row series on the engine "
          "(conventional vs FIM, per stride):")
    for row in microbench_speedups(config, 1 << 18, single_row=True):
        print(f"  stride {row['stride']:>2}: "
              f"conv {row['conv_ns'] / 1e3:8.1f} us   "
              f"fim {row['fim_ns'] / 1e3:8.1f} us   "
              f"speedup {row['speedup']:.2f}x")


if __name__ == "__main__":
    main()
