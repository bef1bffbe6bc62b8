"""Channel-controller scheduling: command sequences, FR-FCFS, FIM."""

import pytest

from repro.dram.engine.commands import CommandType, Request, RequestType
from repro.dram.engine.timing import timing_from_spec
from repro.dram.spec import DEVICES

from reference_engine import ChannelController

ACT, PRE, RD, WR = (CommandType.ACT, CommandType.PRE,
                    CommandType.RD, CommandType.WR)


def make_controller(refresh=False, **kwargs):
    timing = timing_from_spec(DEVICES["DDR4_2400_x16"])
    return ChannelController(timing, ranks=1, refresh_enabled=refresh,
                             **kwargs)


def drain(controller, limit=200_000):
    now = 0
    while controller.pending:
        next_cycle, issued = controller.step(now)
        now = next_cycle if issued else max(now + 1, min(next_cycle,
                                                         now + 10_000))
        limit -= 1
        assert limit > 0, "controller failed to drain"
    return controller


def read(bank, row, column=0, req_id=0, arrival=0):
    return Request(RequestType.READ, rank=0, bank=bank, row=row,
                   column=column, req_id=req_id, arrival=arrival)


def write(bank, row, column=0, req_id=0):
    return Request(RequestType.WRITE, rank=0, bank=bank, row=row,
                   column=column, req_id=req_id)


def gather(bank, row, offsets=(0, 1, 2, 3, 4, 5, 6, 7), req_id=0):
    return Request(RequestType.GATHER, rank=0, bank=bank, row=row,
                   offsets=tuple(offsets), req_id=req_id)


def scatter(bank, row, offsets=(0, 1, 2, 3, 4, 5, 6, 7), req_id=0):
    return Request(RequestType.SCATTER, rank=0, bank=bank, row=row,
                   offsets=tuple(offsets), req_id=req_id)


class TestSingleRequests:
    def test_cold_read_sequence(self):
        controller = make_controller()
        controller.enqueue(read(0, 5))
        drain(controller)
        kinds = [c.kind for c in controller.trace]
        assert kinds == [ACT, RD]
        assert controller.trace[0].row == 5

    def test_read_latency_is_rcd_cl_bl(self):
        controller = make_controller()
        request = read(0, 5)
        controller.enqueue(request)
        drain(controller)
        timing = controller.timing
        assert request.finish_cycle == (
            timing.tRCD + timing.tCL + timing.tBL
        )

    def test_row_hit_skips_act(self):
        controller = make_controller()
        controller.enqueue(read(0, 5, column=0, req_id=0))
        controller.enqueue(read(0, 5, column=1, req_id=1))
        drain(controller)
        kinds = [c.kind for c in controller.trace]
        assert kinds == [ACT, RD, RD]

    def test_row_conflict_precharges(self):
        controller = make_controller()
        controller.enqueue(read(0, 5, req_id=0))
        controller.enqueue(read(0, 9, req_id=1))
        drain(controller)
        kinds = [c.kind for c in controller.trace]
        assert kinds == [ACT, RD, PRE, ACT, RD]

    def test_write_completes_at_data_end(self):
        controller = make_controller()
        request = write(0, 5)
        controller.enqueue(request)
        drain(controller)
        timing = controller.timing
        wr = [c for c in controller.trace if c.kind is WR][0]
        assert request.finish_cycle == wr.data_start + timing.tBL


class TestFRFCFS:
    def test_row_hit_served_before_older_conflict(self):
        controller = make_controller()
        # Oldest request conflicts (row 9); a younger one hits row 5.
        controller.enqueue(read(0, 5, column=0, req_id=0))
        controller.enqueue(read(0, 9, column=0, req_id=1))
        controller.enqueue(read(0, 5, column=1, req_id=2))
        drain(controller)
        order = [c.req_id for c in controller.trace if c.kind is RD]
        assert order == [0, 2, 1]

    def test_bank_parallelism_overlaps_activations(self):
        controller = make_controller()
        for bank in range(4):
            controller.enqueue(read(bank, 1, req_id=bank))
        drain(controller)
        acts = [c.cycle for c in controller.trace if c.kind is ACT]
        # Activations pipeline at tRRD spacing, far below serial tRC.
        assert len(acts) == 4
        assert acts[-1] - acts[0] < controller.timing.tRC

    def test_writes_drain_when_no_reads(self):
        controller = make_controller()
        for i in range(3):
            controller.enqueue(write(0, 1, column=i, req_id=i))
        drain(controller)
        assert controller.stats.writes == 3

    def test_write_drain_watermark(self):
        controller = make_controller(queue_depth=8)
        # Fill writes to the high watermark; reads still pending.
        controller.enqueue(read(1, 1, req_id=100))
        for i in range(6):
            controller.enqueue(write(0, 1, column=i, req_id=i))
        drain(controller)
        assert controller.stats.writes == 6
        assert controller.stats.reads == 1


class TestFimSequences:
    def test_gather_command_shape(self):
        controller = make_controller()
        controller.enqueue(gather(0, 5))
        drain(controller)
        kinds = [c.kind for c in controller.trace]
        assert kinds == [ACT, WR, PRE, ACT, RD]
        virtual = [c.virtual for c in controller.trace]
        assert virtual == [False, True, True, True, True]
        assert controller.stats.gathers == 1

    def test_scatter_command_shape(self):
        controller = make_controller()
        controller.enqueue(scatter(0, 5))
        drain(controller)
        kinds = [c.kind for c in controller.trace]
        # offsets, data, PRE/ACT gap, dummy trigger write
        assert kinds == [ACT, WR, WR, PRE, ACT, WR]
        assert controller.stats.scatters == 1

    def test_gather_window_bound(self):
        controller = make_controller()
        controller.enqueue(gather(0, 5))
        drain(controller)
        timing = controller.timing
        wr_offsets = [c for c in controller.trace
                      if c.kind is WR and c.virtual][0]
        rd = [c for c in controller.trace if c.kind is RD][0]
        window = 8 * timing.tCCD_L
        assert rd.cycle >= wr_offsets.data_end + window

    def test_physical_row_survives_fim(self):
        controller = make_controller()
        controller.enqueue(gather(0, 5, req_id=0))
        controller.enqueue(read(0, 5, req_id=1))
        drain(controller)
        # The read after the gather must be a row hit: exactly one
        # non-virtual ACT in the whole trace.
        real_acts = [c for c in controller.trace
                     if c.kind is ACT and not c.virtual]
        assert len(real_acts) == 1

    def test_fim_different_row_reactivates(self):
        controller = make_controller()
        controller.enqueue(gather(0, 5, req_id=0))
        controller.enqueue(gather(0, 6, req_id=1))
        drain(controller)
        real_acts = [c for c in controller.trace
                     if c.kind is ACT and not c.virtual]
        assert [c.row for c in real_acts] == [5, 6]

    def test_partial_gather_fewer_offsets(self):
        controller = make_controller()
        controller.enqueue(gather(0, 5, offsets=(1, 2, 3)))
        drain(controller)
        assert controller.stats.gathers == 1

    def test_fim_and_reads_interleave_across_banks(self):
        controller = make_controller()
        controller.enqueue(gather(0, 5, req_id=0))
        controller.enqueue(read(3, 2, req_id=1))
        drain(controller)
        assert controller.stats.gathers == 1
        assert controller.stats.reads >= 1

    def test_offsets_required(self):
        with pytest.raises(ValueError, match="offsets"):
            Request(RequestType.GATHER, rank=0, bank=0, row=0)


class TestRefresh:
    def test_refresh_issued_on_schedule(self):
        controller = make_controller(refresh=True)
        timing = controller.timing
        # Spread arrivals over ~3 tREFI so refreshes interleave.
        horizon = 3 * timing.tREFI
        for i in range(60):
            controller.enqueue(read(i % 8, 1, column=i,
                                    arrival=i * horizon // 60, req_id=i))
        drain(controller)
        assert controller.stats.refreshes >= 2

    def test_refresh_closes_banks_first(self):
        controller = make_controller(refresh=True)
        timing = controller.timing
        controller.enqueue(read(0, 1, req_id=0))
        controller.enqueue(read(0, 1, column=5, req_id=1,
                                arrival=timing.tREFI + 10))
        drain(controller)
        trace = controller.trace
        ref_idx = next(i for i, c in enumerate(trace)
                       if c.kind is CommandType.REF)
        # A PRE must close bank 0 before REF.
        assert any(c.kind is PRE for c in trace[:ref_idx])
