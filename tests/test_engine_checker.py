"""The trace checker must reject hand-built illegal command streams."""

import pytest

from repro.dram.engine.checker import (
    EngineProtocolViolation,
    TraceChecker,
)
from repro.dram.engine.commands import Command, CommandType
from repro.dram.engine.timing import timing_from_spec
from repro.dram.spec import DEVICES

ACT, PRE, RD, WR, REF = (CommandType.ACT, CommandType.PRE, CommandType.RD,
                         CommandType.WR, CommandType.REF)


@pytest.fixture
def timing():
    return timing_from_spec(DEVICES["DDR4_2400_x16"])


@pytest.fixture
def checker(timing):
    return TraceChecker(timing, ranks=2)


def act(cycle, bank=0, row=1, rank=0):
    return Command(cycle, ACT, rank, bank, row=row)


def rd(cycle, bank=0, rank=0, timing=None, data=True):
    start = cycle + (timing.tCL if timing else 0)
    return Command(cycle, RD, rank, bank, column=0,
                   data_clocks=timing.tBL if (timing and data) else 0,
                   data_start=start)


def wr(cycle, bank=0, rank=0, timing=None):
    start = cycle + (timing.tCWL if timing else 0)
    return Command(cycle, WR, rank, bank, column=0,
                   data_clocks=timing.tBL if timing else 0,
                   data_start=start)


class TestAcceptsLegal:
    def test_basic_read(self, checker, timing):
        checker.check(act(0))
        checker.check(rd(timing.tRCD, timing=timing))
        assert checker.commands_checked == 2

    def test_full_episode(self, checker, timing):
        checker.check(act(0))
        checker.check(rd(timing.tRCD, timing=timing))
        checker.check(Command(timing.tRAS + 10, PRE, 0, 0))
        checker.check(act(timing.tRAS + 10 + timing.tRP, row=2))


class TestRejectsIllegal:
    def test_rcd_violation(self, checker, timing):
        checker.check(act(0))
        with pytest.raises(EngineProtocolViolation, match="tRCD"):
            checker.check(rd(timing.tRCD - 1, timing=timing))

    def test_ras_violation(self, checker, timing):
        checker.check(act(0))
        with pytest.raises(EngineProtocolViolation, match="tRAS"):
            checker.check(Command(timing.tRAS - 1, PRE, 0, 0))

    def test_rp_violation(self, checker, timing):
        checker.check(act(0))
        checker.check(Command(timing.tRAS, PRE, 0, 0))
        with pytest.raises(EngineProtocolViolation, match="tRP"):
            checker.check(act(timing.tRAS + timing.tRP - 1, row=2))

    def test_double_act(self, checker, timing):
        checker.check(act(0))
        with pytest.raises(EngineProtocolViolation, match="already open"):
            checker.check(act(timing.tRC + 100, row=2))

    def test_column_without_open_row(self, checker, timing):
        with pytest.raises(EngineProtocolViolation, match="no open row"):
            checker.check(rd(100, timing=timing))

    def test_column_to_other_row(self, checker, timing):
        checker.check(act(0, row=1))
        other = Command(timing.tRCD, RD, 0, 0, row=2, column=0)
        with pytest.raises(EngineProtocolViolation, match="not the open row"):
            checker.check(other)

    def test_virtual_column_skips_row_check(self, checker, timing):
        checker.check(act(0, row=1))
        checker.check(Command(timing.tRCD, WR, 0, 0, row=2, virtual=True))
        assert checker.commands_checked == 2

    def test_rrd_violation(self, checker, timing):
        checker.check(act(0, bank=0))
        with pytest.raises(EngineProtocolViolation, match="tRRD"):
            checker.check(act(1, bank=4, row=1))

    def test_faw_violation(self, checker, timing):
        cycle = 0
        for bank in (0, 2, 4, 6):  # different groups: tRRD_S spacing
            checker.check(act(cycle, bank=bank))
            cycle += timing.tRRD_S
        with pytest.raises(EngineProtocolViolation, match="tFAW"):
            checker.check(act(cycle, bank=1, row=1))

    def test_ccd_violation(self, checker, timing):
        checker.check(act(0, bank=0))
        checker.check(act(timing.tRRD_S, bank=4))
        first = timing.tRCD + timing.tRRD_S
        checker.check(rd(first, bank=0, timing=timing))
        bad = rd(first + timing.tCCD_S - 1, bank=4, timing=timing)
        with pytest.raises(EngineProtocolViolation, match="tCCD"):
            checker.check(bad)

    def test_wtr_violation(self, checker, timing):
        checker.check(act(0, bank=0))
        checker.check(wr(timing.tRCD, bank=0, timing=timing))
        data_end = timing.tRCD + timing.tCWL + timing.tBL
        bad = rd(data_end + timing.tWTR_S - 1, bank=0, timing=timing)
        with pytest.raises(EngineProtocolViolation, match="tWTR"):
            checker.check(bad)

    def test_rtp_violation(self, checker, timing):
        checker.check(act(0))
        # Issue the read after tRAS has elapsed so only tRTP can bind.
        rd_cycle = timing.tRAS
        checker.check(rd(rd_cycle, timing=timing))
        with pytest.raises(EngineProtocolViolation, match="tRTP"):
            checker.check(Command(rd_cycle + timing.tRTP - 1, PRE, 0, 0))

    def test_wr_recovery_violation(self, checker, timing):
        checker.check(act(0))
        checker.check(wr(timing.tRCD, timing=timing))
        data_end = timing.tRCD + timing.tCWL + timing.tBL
        bad_cycle = max(timing.tRAS, data_end + timing.tWR - 1)
        if bad_cycle >= data_end + timing.tWR:
            pytest.skip("tRAS dominates on this grade")
        with pytest.raises(EngineProtocolViolation, match="tWR"):
            checker.check(Command(bad_cycle, PRE, 0, 0))

    def test_data_bus_overlap(self, checker, timing):
        checker.check(act(0, bank=0))
        checker.check(act(timing.tRRD_S, bank=4))
        first = timing.tRCD + timing.tRRD_S
        checker.check(rd(first, bank=0, timing=timing))
        overlap = Command(first + timing.tCCD_S, RD, 0, 4, column=0,
                          data_clocks=timing.tBL,
                          data_start=first + timing.tCL + 1)
        with pytest.raises(EngineProtocolViolation, match="data bus"):
            checker.check(overlap)

    def test_data_before_cas(self, checker, timing):
        checker.check(act(0))
        early = Command(timing.tRCD, RD, 0, 0, column=0,
                        data_clocks=timing.tBL,
                        data_start=timing.tRCD + timing.tCL - 1)
        with pytest.raises(EngineProtocolViolation, match="CAS"):
            checker.check(early)

    def test_unordered_trace(self, checker, timing):
        checker.check(act(100))
        with pytest.raises(EngineProtocolViolation, match="time-ordered"):
            checker.check(Command(50, PRE, 0, 0))

    def test_two_commands_one_slot(self, checker, timing):
        checker.check(act(100, bank=0))
        with pytest.raises(EngineProtocolViolation, match="bus slot"):
            checker.check(act(100, bank=4, row=1))

    def test_ref_with_open_bank(self, checker, timing):
        checker.check(act(0))
        with pytest.raises(EngineProtocolViolation, match="bank open"):
            checker.check(Command(timing.tRC, REF, 0, 0))

    def test_command_during_rfc(self, checker, timing):
        checker.check(Command(0, REF, 0, 0))
        with pytest.raises(EngineProtocolViolation, match="tRFC"):
            checker.check(act(timing.tRFC - 1))

    def test_ref_then_act_after_rfc(self, checker, timing):
        checker.check(Command(0, REF, 0, 0))
        checker.check(act(timing.tRFC))
        assert checker.commands_checked == 2
