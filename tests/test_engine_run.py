"""End-to-end engine runs: bandwidth, latency, refresh, channels."""

import numpy as np
import pytest

from repro.dram.engine import DRAMEngine, check_engine_result
from repro.dram.engine.workloads import (
    conventional_requests,
    fim_requests,
    random_mix,
    strided_addresses,
)
from repro.dram.spec import DEVICES, DRAMConfig, default_config


@pytest.fixture(scope="module")
def config():
    return default_config()


def run_addresses(config, addrs, is_write=None, refresh=False):
    engine = DRAMEngine(config, refresh_enabled=refresh)
    requests, channels = conventional_requests(config, addrs, is_write)
    return engine.run(requests, channels)


class TestSequentialReads:
    def test_every_request_finishes(self, config):
        addrs = np.arange(0, 64 * 300, 64, dtype=np.int64)
        result = run_addresses(config, addrs)
        assert all(r.done for r in result.requests)

    def test_near_peak_bandwidth(self, config):
        addrs = np.arange(0, 64 * 2000, 64, dtype=np.int64)
        result = run_addresses(config, addrs)
        achieved = result.bandwidth_gbps(addrs.size * 64)
        peak = config.peak_bandwidth_gbps
        # Streams should reach well over half of peak on open rows.
        assert achieved > 0.5 * peak
        assert achieved <= peak + 1e-9

    def test_row_hits_dominate(self, config):
        addrs = np.arange(0, 64 * 1000, 64, dtype=np.int64)
        result = run_addresses(config, addrs)
        assert result.stats.acts < addrs.size * 0.1

    def test_trace_is_protocol_clean(self, config):
        addrs = np.arange(0, 64 * 500, 64, dtype=np.int64)
        result = run_addresses(config, addrs)
        assert check_engine_result(result) > addrs.size


class TestRandomTraffic:
    def test_random_reads_activate_often(self, config):
        addrs, _ = random_mix(config, 1000, seed=3, write_fraction=0.0)
        result = run_addresses(config, addrs)
        # Random rows rarely hit: expect close to one ACT per request.
        assert result.stats.acts > 0.5 * result.stats.finished_requests

    def test_random_mix_protocol_clean(self, config):
        addrs, is_write = random_mix(config, 1500, seed=4)
        result = run_addresses(config, addrs, is_write, refresh=True)
        assert check_engine_result(result) > 0

    def test_random_slower_than_sequential(self):
        # One rank (8 banks): activations cannot fully hide, so random
        # rows must cost clearly more than an open-row stream.
        config = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1,
                            ranks=1)
        n = 800
        seq = np.arange(0, 64 * n, 64, dtype=np.int64)
        rand, _ = random_mix(config, n, seed=5, write_fraction=0.0)
        t_seq = run_addresses(config, seq).time_ns
        t_rand = run_addresses(config, rand).time_ns
        assert t_rand > 1.5 * t_seq

    def test_latency_floor(self, config):
        addrs, _ = random_mix(config, 200, seed=6, write_fraction=0.0)
        result = run_addresses(config, addrs)
        timing = result.timing
        floor = timing.tCL + timing.tBL
        for request in result.requests:
            assert request.latency >= floor


class TestRefresh:
    def test_refresh_cadence(self, config):
        # Stretch arrivals over ~5 tREFI per rank and count refreshes.
        engine = DRAMEngine(config, refresh_enabled=True)
        timing = engine.timing
        n = 400
        addrs = np.arange(0, 64 * n, 64, dtype=np.int64)
        arrivals = np.linspace(0, 5 * timing.tREFI, n).astype(np.int64)
        requests, channels = engine.requests_from_addresses(
            addrs, arrivals=arrivals
        )
        result = engine.run(requests, channels)
        # ~5 refreshes per rank over the horizon.
        expected = 5 * config.ranks
        assert expected * 0.5 <= result.stats.refreshes <= expected * 2

    def test_refresh_disabled(self, config):
        addrs = np.arange(0, 64 * 100, 64, dtype=np.int64)
        result = run_addresses(config, addrs, refresh=False)
        assert result.stats.refreshes == 0


class TestChannels:
    def test_two_channels_nearly_halve_time(self):
        base = default_config()
        dual = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=2,
                          ranks=4)
        addrs = np.arange(0, 64 * 2000, 64, dtype=np.int64)
        t1 = run_addresses(base, addrs).time_ns
        t2 = run_addresses(dual, addrs).time_ns
        assert t2 < 0.7 * t1

    def test_channel_routing(self):
        dual = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=2,
                          ranks=4)
        engine = DRAMEngine(dual)
        addrs = np.arange(0, 64 * 64, 64, dtype=np.int64)
        requests, channels = conventional_requests(dual, addrs)
        result = engine.run(requests, channels)
        assert len(result.traces) == 2
        assert all(len(trace) > 0 for trace in result.traces)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_route_outside_channels_raises(self, bad):
        """A route of -1 used to land every request on the last channel
        (Python negative indexing); one past the end raised a bare
        IndexError."""
        dual = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=2,
                          ranks=4)
        engine = DRAMEngine(dual)
        addrs = np.arange(0, 64 * 40, 64, dtype=np.int64)
        requests, channels = conventional_requests(dual, addrs)
        channels = channels.copy()
        channels[:] = bad
        with pytest.raises(ValueError, match="channels"):
            engine.run(requests, channels)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_route_length_mismatch_raises(self, config, delta):
        """A longer route was silently cut; a shorter one failed with a
        NumPy IndexError."""
        engine = DRAMEngine(config)
        addrs = np.arange(0, 64 * 40, 64, dtype=np.int64)
        requests, channels = conventional_requests(config, addrs)
        route = np.zeros(len(requests) + delta, dtype=np.int64)
        with pytest.raises(ValueError, match="channels"):
            engine.run(requests, route)

    @pytest.mark.parametrize("name", ["is_write", "arrivals"])
    @pytest.mark.parametrize("length", [4, 40])
    def test_address_column_length_mismatch_raises(self, config, name,
                                                   length):
        """``requests_from_addresses`` used to drop the tail of a longer
        column (5 addresses with 40 flags gave 5 requests)."""
        engine = DRAMEngine(config)
        addrs = np.arange(0, 64 * 5, 64, dtype=np.int64)
        column = np.zeros(length, dtype=np.int64)
        with pytest.raises(ValueError, match=name):
            engine.requests_from_addresses(addrs, **{name: column})


class TestFimRuns:
    def test_gathers_complete_and_check(self, config):
        addrs = strided_addresses(config, 1 << 17, 8, single_row=True)
        engine = DRAMEngine(config)
        requests, channels = fim_requests(config, addrs)
        result = engine.run(requests, channels)
        assert result.stats.gathers == len(requests)
        assert check_engine_result(result) > 0

    def test_scatters_complete_and_check(self, config):
        addrs = strided_addresses(config, 1 << 16, 8, single_row=True)
        engine = DRAMEngine(config)
        requests, channels = fim_requests(config, addrs, scatter=True)
        result = engine.run(requests, channels)
        assert result.stats.scatters == len(requests)
        assert check_engine_result(result) > 0

    def test_fim_beats_conventional_on_sparse_rows(self, config):
        addrs = strided_addresses(config, 1 << 17, 8, single_row=True)
        conv = run_addresses(config, addrs).time_ns
        engine = DRAMEngine(config)
        requests, channels = fim_requests(config, addrs)
        fim = engine.run(requests, channels).time_ns
        assert conv / fim > 2.5

    def test_fim_with_refresh_is_clean(self, config):
        addrs = strided_addresses(config, 1 << 16, 8, single_row=False)
        engine = DRAMEngine(config, refresh_enabled=True)
        requests, channels = fim_requests(config, addrs)
        result = engine.run(requests, channels)
        assert check_engine_result(result) > 0


class TestStatsAccounting:
    def test_burst_counts_match_requests(self, config):
        n = 300
        addrs = np.arange(0, 64 * n, 64, dtype=np.int64)
        is_write = np.zeros(n, dtype=bool)
        is_write[::3] = True
        result = run_addresses(config, addrs, is_write)
        assert result.stats.reads == int(np.count_nonzero(~is_write))
        assert result.stats.writes == int(np.count_nonzero(is_write))

    def test_mean_latency_positive(self, config):
        addrs = np.arange(0, 64 * 50, 64, dtype=np.int64)
        result = run_addresses(config, addrs)
        assert result.mean_latency_ns > 0

    def test_bus_utilisation_bounded(self, config):
        addrs = np.arange(0, 64 * 500, 64, dtype=np.int64)
        engine = DRAMEngine(config)
        requests, channels = conventional_requests(config, addrs)
        result = engine.run(requests, channels)
        util = result.stats.data_bus_clocks[0] / result.cycles
        assert 0.0 < util <= 1.0
