"""Engine corner cases: degenerate queues, tiny ops, mixed rows."""

import numpy as np
import pytest

from repro.dram.engine import (
    DRAMEngine,
    Request,
    RequestType,
    check_engine_result,
)
from repro.dram.engine.workloads import conventional_requests
from repro.dram.spec import DEVICES, DRAMConfig, default_config


@pytest.fixture(scope="module")
def config():
    return default_config()


class TestDegenerateInputs:
    def test_empty_run(self, config):
        result = DRAMEngine(config).run([])
        assert result.cycles == 0
        assert result.stats.finished_requests == 0

    def test_single_request(self, config):
        engine = DRAMEngine(config)
        request = Request(RequestType.READ, rank=0, bank=0, row=0)
        result = engine.run([request])
        assert request.done
        assert check_engine_result(result) == 2  # ACT + RD

    def test_queue_depth_one_still_drains(self, config):
        engine = DRAMEngine(config, queue_depth=1)
        addrs = np.arange(0, 64 * 60, 64, dtype=np.int64)
        requests, channels = conventional_requests(config, addrs)
        result = engine.run(requests, channels)
        assert result.stats.finished_requests == 60
        assert check_engine_result(result) > 0

    @pytest.mark.parametrize("depth", [0, -1])
    def test_queue_depth_below_one_raises(self, config, depth):
        """A queue that admits nothing can never drain: the driver would
        creep one cycle at a time toward the cycle budget."""
        with pytest.raises(ValueError, match="queue_depth"):
            DRAMEngine(config, queue_depth=depth)

    def test_single_offset_gather(self, config):
        engine = DRAMEngine(config)
        request = Request(RequestType.GATHER, rank=0, bank=0, row=0,
                          offsets=(5,))
        result = engine.run([request])
        assert result.stats.gathers == 1
        assert check_engine_result(result) > 0

    def test_far_future_arrival(self, config):
        engine = DRAMEngine(config)
        request = Request(RequestType.READ, rank=0, bank=0, row=0,
                          arrival=100_000)
        result = engine.run([request])
        assert request.issue_cycle >= 100_000

    def test_duplicate_addresses_collapse(self, config):
        addrs = np.zeros(50, dtype=np.int64)
        requests, _ = conventional_requests(config, addrs)
        assert len(requests) == 1


class TestSameBankContention:
    def test_alternating_rows_get_batched(self, config):
        """Two rows ping-ponging on one bank: FR-FCFS serves all hits of
        the open row first, costing two activations instead of twenty."""
        engine = DRAMEngine(config)
        requests = [
            Request(RequestType.READ, rank=0, bank=0,
                    row=i % 2, column=i, req_id=i)
            for i in range(20)
        ]
        result = engine.run(requests)
        assert result.stats.acts == 2
        row0_last = max(r.finish_cycle for r in requests if r.row == 0)
        row1_first = min(r.finish_cycle for r in requests if r.row == 1)
        assert row0_last < row1_first
        assert check_engine_result(result) > 0

    def test_fcfs_order_preserved_on_one_bank_row(self, config):
        engine = DRAMEngine(config)
        requests = [
            Request(RequestType.READ, rank=0, bank=0, row=3,
                    column=i, req_id=i)
            for i in range(16)
        ]
        result = engine.run(requests)
        finish = [r.finish_cycle for r in sorted(result.requests,
                                                 key=lambda r: r.req_id)]
        assert finish == sorted(finish)

    def test_gather_storm_on_one_bank_serialises(self, config):
        engine = DRAMEngine(config)
        requests = [
            Request(RequestType.GATHER, rank=0, bank=0, row=0,
                    offsets=tuple(range(8 * i, 8 * i + 8)), req_id=i)
            for i in range(8)
        ]
        result = engine.run(requests)
        assert result.stats.gathers == 8
        window = 8 * engine.timing.tCCD_L
        # Eight window-bound sequences cannot overlap on one bank.
        assert result.cycles >= 8 * window
        assert check_engine_result(result) > 0


class TestLowLevelConfigs:
    def test_single_bank_rank(self):
        spec = DEVICES["DDR4_2400_x16"]
        config = DRAMConfig(spec=spec, channels=1, ranks=1)
        engine = DRAMEngine(config)
        addrs = np.arange(0, 64 * 40, 64, dtype=np.int64)
        requests, channels = conventional_requests(config, addrs)
        result = engine.run(requests, channels)
        assert result.stats.finished_requests == 40
        assert check_engine_result(result) > 0

    @pytest.mark.parametrize("grade", sorted(DEVICES))
    def test_refresh_alone(self, grade):
        """No requests: the engine must not spin on refresh deadlines."""
        config = DRAMConfig(spec=DEVICES[grade], channels=1, ranks=1)
        result = DRAMEngine(config, refresh_enabled=True).run([])
        assert result.cycles == 0
