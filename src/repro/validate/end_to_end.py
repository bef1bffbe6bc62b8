"""One-call FIM validation on the engine's own Sec. VI traces.

The paper shows on an FPGA that Piccolo-FIM needs only standard DDR4
commands under JEDEC timing (Sec. VI, VII-B).  Offline, a gather and
scatter programme goes to one bank of the command-level engine; its
trace must pass :class:`~repro.dram.engine.checker.TraceChecker`, and
:func:`replay_fim_trace` must move the same data through the functional
:class:`~repro.core.fim.FimBank` as a plain shadow array does.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.fim import FimBank, FimCommandError
from repro.dram.engine import (
    CommandType,
    DRAMEngine,
    EngineResult,
    Request,
    RequestType,
    check_engine_result,
)
from repro.dram.engine.commands import DATA_BUFFER_COLUMN, OFFSET_BUFFER_COLUMN
from repro.dram.spec import DEVICES, DRAMConfig

_ROWS = 4


def replay_fim_trace(
    bank: FimBank, result: EngineResult,
    values: Mapping[int, Sequence[int]],
) -> dict[int, list[int]]:
    """Drive ``bank`` with the one-bank FIM trace of ``result``.

    Physical ACT/PRE open and close rows; physical RD/WR and REF carry
    no FIM data and are skipped.  The chip no-ops virtual PRE/ACT, so
    the target row stays open.  Virtual WRs before the virtual ACT load
    the offset buffer (with the request's offsets) or the data buffer
    (with ``values[req_id]``).  Each column command after it -- the
    gather's RDs or the scatter's dummy WR -- runs the in-bank
    operation, unless it issues less than ``offset_count x tCCD_L``
    after the last buffer write's data lands.  Returns each gather's
    words by request id.

    Raises:
        FimCommandError: an execution window is too short, a virtual
            column is unmapped, or the bank rejects a command.
    """
    requests = {request.req_id: request for request in result.requests}
    gathered: dict[int, list[int]] = {}
    current, ready, swapped = None, 0, False
    for cmd in result.traces[0]:
        if not cmd.virtual:
            if cmd.kind is CommandType.ACT:
                bank.activate(cmd.row)
            elif cmd.kind is CommandType.PRE:
                bank.precharge()
            continue
        if cmd.req_id != current:
            current, ready, swapped = cmd.req_id, 0, False
        if cmd.kind is CommandType.PRE:
            continue
        if cmd.kind is CommandType.ACT:
            swapped = True
            continue
        if cmd.column not in (OFFSET_BUFFER_COLUMN, DATA_BUFFER_COLUMN):
            raise FimCommandError(f"unmapped virtual column {cmd.column}")
        request = requests[cmd.req_id]
        if not swapped:
            if cmd.column == OFFSET_BUFFER_COLUMN:
                bank.write_offset_buffer(list(request.offsets))
            else:
                bank.write_data_buffer(list(values[cmd.req_id]))
            ready = max(ready, cmd.data_end)
            continue
        needed = bank.offset_count * result.timing.tCCD_L
        if cmd.cycle - ready < needed:
            raise FimCommandError(
                f"window too short: {cmd.cycle - ready} < {needed} clocks"
            )
        if request.kind is RequestType.SCATTER:
            bank.scatter_execute()
        else:
            bank.gather_execute()
            gathered[cmd.req_id] = bank.read_data_buffer()
    return gathered


def validate_fim_data_path(
    config: DRAMConfig | None = None, seed: int = 2025
) -> bool:
    """Run the fixed validation programme on one bank of ``config``
    (default: one rank of DDR4-2400 x16); True when the data holds.

    Raises:
        EngineProtocolViolation: the engine trace breaks a DDR rule.
        FimCommandError: the trace does not drive the chip correctly.
    """
    if config is None:
        config = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1, ranks=1)
    spec = config.spec
    rng = np.random.default_rng(seed)
    bank = FimBank(config, rows=_ROWS)
    for row in range(_ROWS):
        bank.cells[row] = rng.integers(
            0, 1 << 63, size=spec.row_words, dtype=np.uint64
        )
    shadow = bank.cells.copy()

    requests: list[Request] = []
    values: dict[int, list[int]] = {}
    items = config.fim_items_per_op
    for row in range(_ROWS):
        offsets = tuple(sorted(int(o) for o in rng.choice(
            spec.row_words, size=items, replace=False)))
        for kind in (RequestType.GATHER, RequestType.SCATTER,
                     RequestType.GATHER):
            requests.append(Request(kind, rank=0, bank=0, row=row,
                                    offsets=offsets, req_id=len(requests)))
        values[requests[-2].req_id] = [
            int(v) for v in rng.integers(0, 1 << 62, size=items)
        ]
    result = DRAMEngine(config, refresh_enabled=True).run(requests)
    check_engine_result(result)
    gathered = replay_fim_trace(bank, result, values)
    bank.precharge()

    # One bank runs its programmes one at a time, in finish order.
    for request in sorted(requests, key=lambda r: r.finish_cycle):
        columns = list(request.offsets)
        if request.kind is RequestType.SCATTER:
            shadow[request.row, columns] = values[request.req_id]
        elif gathered[request.req_id] != shadow[request.row, columns].tolist():
            return False
    return bool(np.array_equal(bank.cells, shadow))
