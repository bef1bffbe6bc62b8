"""FR-FCFS scheduler behaviour: drain hysteresis, priorities, bus
awareness."""

import numpy as np
import pytest

from repro.dram.engine.batched import WRITE_HI, WRITE_LO
from repro.dram.engine.commands import CommandType, Request, RequestType
from repro.dram.engine.timing import timing_from_spec
from repro.dram.spec import DEVICES

from reference_engine import ChannelController


def make_controller(**kwargs):
    timing = timing_from_spec(DEVICES["DDR4_2400_x16"])
    kwargs.setdefault("ranks", 4)
    kwargs.setdefault("refresh_enabled", False)
    return ChannelController(timing, **kwargs)


def drain(controller, limit=500_000):
    now = 0
    while controller.pending:
        next_cycle, issued = controller.step(now)
        now = next_cycle if issued else max(now + 1,
                                            min(next_cycle, now + 10_000))
        limit -= 1
        assert limit > 0, "controller failed to drain"


def read(bank, row, rank=0, column=0, req_id=0):
    return Request(RequestType.READ, rank=rank, bank=bank, row=row,
                   column=column, req_id=req_id)


def write(bank, row, rank=0, column=0, req_id=0):
    return Request(RequestType.WRITE, rank=rank, bank=bank, row=row,
                   column=column, req_id=req_id)


class TestWriteDrain:
    def test_reads_preferred_below_watermark(self):
        controller = make_controller(queue_depth=16)
        controller.enqueue(write(0, 1, req_id=0))
        controller.enqueue(read(1, 1, req_id=1))
        drain(controller)
        cols = [c for c in controller.trace
                if c.kind in (CommandType.RD, CommandType.WR)]
        assert cols[0].kind is CommandType.RD

    def test_drain_mode_entered_at_high_watermark(self):
        depth = 16
        controller = make_controller(queue_depth=depth)
        hi = int(depth * WRITE_HI)
        controller.enqueue(read(7, 1, req_id=99))
        for i in range(hi):
            controller.enqueue(write(i % 4, 1, column=i, req_id=i))
        controller._update_write_mode()
        assert controller._write_mode

    def test_drain_mode_exits_at_low_watermark(self):
        depth = 16
        controller = make_controller(queue_depth=depth)
        controller._write_mode = True
        controller.enqueue(read(7, 1, req_id=99))
        for i in range(int(depth * WRITE_LO)):
            controller.enqueue(write(0, 1, column=i, req_id=i))
        controller._update_write_mode()
        assert not controller._write_mode

    def test_writes_eventually_complete_even_below_watermark(self):
        controller = make_controller(queue_depth=32)
        controller.enqueue(write(0, 1, req_id=0))
        drain(controller)
        assert controller.stats.writes == 1


class TestBusAwareSelection:
    def test_same_rank_hits_batch(self):
        """With row hits ready on two ranks, the scheduler must not
        strictly alternate ranks (each switch costs tRTRS on the data
        bus)."""
        controller = make_controller()
        req_id = 0
        for column in range(8):
            for rank in (0, 1):
                controller.enqueue(read(0, 1, rank=rank, column=column,
                                        req_id=req_id))
                req_id += 1
        drain(controller)
        cols = [c for c in controller.trace
                if c.kind is CommandType.RD]
        switches = sum(1 for a, b in zip(cols, cols[1:])
                       if a.rank != b.rank)
        assert switches < len(cols) - 2  # strict alternation would be 15

    def test_prep_commands_fill_idle_slots(self):
        """An ACT for a second bank should issue while the first bank's
        column commands are pacing at tCCD."""
        controller = make_controller()
        for column in range(4):
            controller.enqueue(read(0, 1, column=column, req_id=column))
        controller.enqueue(read(1, 2, req_id=10))
        drain(controller)
        trace = controller.trace
        act_b1 = next(c for c in trace
                      if c.kind is CommandType.ACT and c.bank == 1)
        last_rd_b0 = max(c.cycle for c in trace
                         if c.kind is CommandType.RD and c.bank == 0)
        assert act_b1.cycle < last_rd_b0


class TestFairness:
    def test_no_request_starves(self):
        rng = np.random.default_rng(0)
        controller = make_controller(queue_depth=8)
        requests = [
            Request(RequestType.READ if rng.random() < 0.7
                    else RequestType.WRITE,
                    rank=int(rng.integers(0, 4)),
                    bank=int(rng.integers(0, 8)),
                    row=int(rng.integers(0, 16)),
                    column=int(rng.integers(0, 64)),
                    req_id=i)
            for i in range(120)
        ]
        for request in requests:
            # Feed through a driver that respects queue depth.
            pass
        from repro.dram.engine import DRAMEngine
        from repro.dram.spec import default_config

        engine = DRAMEngine(default_config(), queue_depth=8)
        result = engine.run(requests)
        assert all(r.done for r in result.requests)

    def test_fim_does_not_starve_reads_on_other_banks(self):
        controller = make_controller()
        for i in range(4):
            controller.enqueue(Request(
                RequestType.GATHER, rank=0, bank=0, row=0,
                offsets=tuple(range(8 * i, 8 * i + 8)), req_id=i,
            ))
        controller.enqueue(read(5, 1, req_id=100))
        drain(controller)
        rd = next(c for c in controller.trace
                  if c.kind is CommandType.RD and c.bank == 5)
        last = controller.trace[-1]
        assert rd.cycle < last.cycle  # the read finished mid-storm
