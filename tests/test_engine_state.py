"""Bank/rank timing state machines and the shared data bus."""

import pytest

from repro.dram.engine.commands import CommandType
from repro.dram.engine.timing import timing_from_spec
from repro.dram.spec import DEVICES

from reference_engine import BankState, DataBus, RankState

ACT, PRE, RD, WR = (CommandType.ACT, CommandType.PRE,
                    CommandType.RD, CommandType.WR)


@pytest.fixture
def timing():
    return timing_from_spec(DEVICES["DDR4_2400_x16"])


@pytest.fixture
def rank(timing):
    return RankState(timing)


class TestBankWindows:
    def test_act_opens_row_and_sets_windows(self, rank, timing):
        rank.issue(ACT, 0, 100, row=7)
        bank = rank.banks[0]
        assert bank.open_row == 7
        assert bank.earliest(RD) == 100 + timing.tRCD
        assert bank.earliest(WR) == 100 + timing.tRCD
        assert bank.earliest(PRE) == 100 + timing.tRAS
        assert bank.earliest(ACT) == 100 + timing.tRC

    def test_pre_closes_and_blocks_act(self, rank, timing):
        rank.issue(ACT, 0, 0, row=1)
        cycle = rank.earliest(PRE, 0)
        rank.issue(PRE, 0, cycle)
        assert rank.banks[0].open_row is None
        assert rank.earliest(ACT, 0) >= cycle + timing.tRP

    def test_write_recovery_delays_pre(self, rank, timing):
        rank.issue(ACT, 0, 0, row=1)
        wr_cycle = rank.earliest(WR, 0)
        rank.issue(WR, 0, wr_cycle)
        data_end = wr_cycle + timing.tCWL + timing.tBL
        assert rank.earliest(PRE, 0) >= data_end + timing.tWR

    def test_explicit_data_end_extends_recovery(self, rank, timing):
        rank.issue(ACT, 0, 0, row=1)
        wr_cycle = rank.earliest(WR, 0)
        delayed_end = wr_cycle + timing.tCWL + timing.tBL + 50
        rank.issue(WR, 0, wr_cycle, data_end=delayed_end)
        assert rank.earliest(PRE, 0) >= delayed_end + timing.tWR

    def test_read_to_precharge(self, rank, timing):
        rank.issue(ACT, 0, 0, row=1)
        rd_cycle = rank.earliest(RD, 0)
        rank.issue(RD, 0, rd_cycle)
        assert rank.earliest(PRE, 0) >= rd_cycle + timing.tRTP


class TestRankWindows:
    def test_rrd_same_group_vs_cross_group(self, rank, timing):
        rank.issue(ACT, 0, 0, row=1)
        # Bank 1 shares group 0 with bank 0; bank 2 does not.
        assert rank.earliest(ACT, 1) >= timing.tRRD_L
        assert rank.earliest(ACT, 2) >= timing.tRRD_S
        assert rank.earliest(ACT, 2) <= rank.earliest(ACT, 1)

    def test_faw_blocks_fifth_activation(self, rank, timing):
        cycle = 0
        for bank in range(4):
            cycle = max(cycle, rank.earliest(ACT, bank))
            rank.issue(ACT, bank, cycle, row=0)
        fifth = rank.earliest(ACT, 4)
        first_act = rank._act_window[0]
        assert fifth >= first_act + timing.tFAW

    def test_ccd_between_column_commands(self, rank, timing):
        rank.issue(ACT, 0, 0, row=1)
        rank.issue(ACT, 2, rank.earliest(ACT, 2), row=1)
        first = rank.earliest(RD, 0)
        rank.issue(RD, 0, first)
        # Same group -> tCCD_L; different group -> tCCD_S.
        assert rank.earliest(RD, 0) >= first + timing.tCCD_L
        assert rank.earliest(RD, 2) >= first + timing.tCCD_S

    def test_write_to_read_turnaround(self, rank, timing):
        rank.issue(ACT, 0, 0, row=1)
        wr_cycle = rank.earliest(WR, 0)
        rank.issue(WR, 0, wr_cycle)
        data_end = wr_cycle + timing.tCWL + timing.tBL
        assert rank.earliest(RD, 0) >= data_end + timing.tWTR_L
        # Cross-group read only needs tWTR_S.
        rank.issue(ACT, 2, rank.earliest(ACT, 2), row=1)
        assert rank.earliest(RD, 2) >= data_end + timing.tWTR_S

    def test_refresh_blocks_everything(self, rank, timing):
        rank.issue(CommandType.REF, 0, 1000)
        assert rank.refresh_until == 1000 + timing.tRFC
        assert rank.earliest(ACT, 3) >= rank.refresh_until
        assert rank.next_refresh_due == timing.tREFI * 2

    def test_refresh_needs_banks_closed(self, rank, timing):
        rank.issue(ACT, 0, 0, row=1)
        # earliest_refresh waits for the bank's next_act window (i.e. a
        # full close/open cycle being possible), conservative per JEDEC.
        assert rank.earliest_refresh() >= timing.tREFI

    def test_all_banks_closed(self, rank):
        assert rank.all_banks_closed()
        rank.issue(ACT, 5, 0, row=3)
        assert not rank.all_banks_closed()
        rank.issue(PRE, 5, rank.earliest(PRE, 5))
        assert rank.all_banks_closed()


class TestDataBus:
    def test_reservation_advances(self, timing):
        bus = DataBus(timing)
        bus.reserve(0, 10, 4, is_read=True)
        assert bus.busy_until == 14
        assert bus.busy_clocks == 4

    def test_no_overlap_allowed(self, timing):
        bus = DataBus(timing)
        bus.reserve(0, 10, 4, is_read=True)
        with pytest.raises(ValueError, match="double-booked"):
            bus.reserve(0, 12, 4, is_read=True)

    def test_rank_switch_penalty(self, timing):
        bus = DataBus(timing)
        bus.reserve(0, 0, 4, is_read=True)
        start = bus.earliest_data_start(1, 4, is_read=True)
        assert start >= 4 + timing.tRTRS

    def test_same_rank_back_to_back(self, timing):
        bus = DataBus(timing)
        bus.reserve(0, 0, 4, is_read=True)
        assert bus.earliest_data_start(0, 4, is_read=True) == 4

    def test_direction_turnaround(self, timing):
        bus = DataBus(timing)
        bus.reserve(0, 0, 4, is_read=True)
        start = bus.earliest_data_start(0, 4, is_read=False)
        assert start >= 5
