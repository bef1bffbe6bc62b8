"""The engine's Sec. VI virtual-row traces drive the functional FIM bank.

Each case runs FIM requests on one bank of the command-level engine and
replays the trace through :func:`repro.validate.end_to_end.replay_fim_trace`:
physical ACT/PRE open and close rows, virtual PRE/ACT are no-ops, virtual
WRs load the offset and data buffers, and the window-bound command runs
the in-bank gather or scatter.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.fim import FimBank, FimCommandError
from repro.dram.engine import (
    CommandType,
    DRAMEngine,
    Request,
    RequestType,
    check_engine_result,
)
from repro.dram.engine.commands import DATA_BUFFER_COLUMN, OFFSET_BUFFER_COLUMN
from repro.dram.spec import DEVICES, DRAMConfig
from repro.validate.end_to_end import replay_fim_trace

SPEC = DEVICES["DDR4_2400_x16"]
CONFIG = DRAMConfig(spec=SPEC, channels=1, ranks=1)


def gather(row, offsets, req_id=0):
    return Request(RequestType.GATHER, rank=0, bank=0, row=row,
                   offsets=tuple(offsets), req_id=req_id)


def scatter(row, offsets, req_id=0):
    return Request(RequestType.SCATTER, rank=0, bank=0, row=row,
                   offsets=tuple(offsets), req_id=req_id)


def run(*requests):
    return DRAMEngine(CONFIG, refresh_enabled=False).run(list(requests))


@pytest.fixture
def bank():
    bank = FimBank(CONFIG, rows=4)
    bank.cells[1] = np.arange(SPEC.row_words, dtype=np.uint64) * 3
    return bank


def with_trace(result, trace):
    return dataclasses.replace(result, traces=[trace])


class TestSequences:
    def test_gather_uses_only_standard_commands(self):
        result = run(gather(1, [1, 2, 3]))
        trace = result.traces[0]
        assert [(c.kind, c.virtual) for c in trace] == [
            (CommandType.ACT, False),
            (CommandType.WR, True), (CommandType.PRE, True),
            (CommandType.ACT, True), (CommandType.RD, True),
        ]
        assert check_engine_result(result) == len(trace)

    def test_gather_window_is_twr_trp_trcd(self):
        result = run(gather(1, [1]))
        trace = result.traces[0]
        offsets_wr, data_rd = trace[1], trace[-1]
        gap = result.timing.ns(data_rd.cycle - offsets_wr.cycle)
        assert gap >= SPEC.fim_internal_window

    def test_gather_returns_row_data(self, bank):
        result = run(gather(1, [5, 10, 0]))
        assert replay_fim_trace(bank, result, {}) == {0: [15, 30, 0]}

    def test_target_row_stays_open(self, bank):
        replay_fim_trace(bank, run(gather(1, [1])), {})
        # Virtual PRE/ACT must not disturb the physically open row.
        assert bank.open_row == 1

    def test_scatter_writes_through(self, bank):
        result = run(scatter(1, [100, 200]), gather(1, [100, 200], 1))
        gathered = replay_fim_trace(bank, result, {0: [7, 8]})
        assert gathered == {1: [7, 8]}
        assert bank.read_word(100) == 7
        assert bank.read_word(200) == 8
        bank.precharge()
        assert bank.cells[1][[100, 200]].tolist() == [7, 8]

    def test_scatter_requires_matching_lengths(self, bank):
        result = run(scatter(1, [1, 2]))
        with pytest.raises(FimCommandError, match="without buffered data"):
            replay_fim_trace(bank, result, {0: [3]})

    def test_short_window_rejected(self, bank):
        """Reading the data buffer before the internal gather can finish
        must raise -- the feasibility condition of Sec. VI."""
        result = run(gather(1, [1, 2, 3, 4, 5, 6, 7, 0]))
        trace = list(result.traces[0])
        offsets_wr = trace[1]
        needed = 8 * result.timing.tCCD_L
        # The engine waits out the full window...
        assert trace[-1].cycle >= offsets_wr.data_end + needed
        replay_fim_trace(FimBank(CONFIG, rows=4), result, {})
        # ...and a window-bound RD moved one clock too early raises.
        trace[-1] = dataclasses.replace(
            trace[-1], cycle=offsets_wr.data_end + needed - 1
        )
        with pytest.raises(FimCommandError, match="window too short"):
            replay_fim_trace(bank, with_trace(result, trace), {})

    def test_unmapped_virtual_column_rejected(self, bank):
        result = run(gather(1, [1]))
        trace = list(result.traces[0])
        trace[1] = dataclasses.replace(trace[1], column=999)
        with pytest.raises(FimCommandError, match="unmapped virtual column"):
            replay_fim_trace(bank, with_trace(result, trace), {})

    def test_dummy_write_triggers_scatter(self, bank):
        """The scatter ends in a dummy write to the other virtual row,
        which forces the PRE/ACT gap that hides it (Sec. VI)."""
        result = run(scatter(1, [9], req_id=0))
        kinds = [(c.kind, c.virtual) for c in result.traces[0]]
        assert kinds[1:] == [
            (CommandType.WR, True), (CommandType.WR, True),
            (CommandType.PRE, True), (CommandType.ACT, True),
            (CommandType.WR, True),
        ]
        # Without the dummy write the scatter never runs.
        cut = FimBank(CONFIG, rows=4)
        replay_fim_trace(cut, with_trace(result, result.traces[0][:-1]),
                         {0: [77]})
        assert cut.read_word(9) == 0
        replay_fim_trace(bank, result, {0: [77]})
        assert bank.read_word(9) == 77


@pytest.mark.parametrize("grade", sorted(DEVICES))
def test_virtual_column_commands_name_a_buffer_column(grade):
    """Every virtual RD/WR of a FIM trace names the offset- or the
    data-buffer column (the offset buffer's column 0 included); ACT and
    PRE name none."""
    config = DRAMConfig(spec=DEVICES[grade], channels=1, ranks=1)
    offsets = range(config.fim_items_per_op)
    result = DRAMEngine(config, refresh_enabled=False).run(
        [gather(1, offsets), scatter(2, offsets, req_id=1)]
    )
    columns = [
        cmd.column for cmd in result.traces[0]
        if cmd.virtual and cmd.kind in (CommandType.RD, CommandType.WR)
    ]
    assert set(columns) == {OFFSET_BUFFER_COLUMN, DATA_BUFFER_COLUMN}
    assert all(
        cmd.column is None for cmd in result.traces[0]
        if cmd.kind in (CommandType.ACT, CommandType.PRE)
    )


class TestCommandValidation:
    def test_non_standard_kind_rejected(self):
        """The engine's command vocabulary is the standard DDR set."""
        assert {kind.value for kind in CommandType} == {
            "ACT", "PRE", "RD", "WR", "REF"
        }
        with pytest.raises(ValueError):
            CommandType("GATHER")
