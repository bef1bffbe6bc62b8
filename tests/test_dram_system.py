"""Tests for the episode-based DRAM timing model."""

import numpy as np
import pytest

from repro.dram.spec import DEVICES, DRAMConfig
from repro.dram.system import DRAMModel, PhaseStats

from reference_paths import FimRow, to_batch


@pytest.fixture
def model(ddr4_config):
    return DRAMModel(ddr4_config)


def random_block_addrs(n, region_bytes, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, region_bytes // 64, n) * 64).astype(np.int64)


class TestBasicTiming:
    def test_empty_phase_is_free(self, model):
        stats = model.phase()
        assert stats.time_ns == 0.0
        assert stats.read_bursts == 0

    def test_single_read_pays_latency_floor(self, model):
        stats = model.phase(addrs=np.asarray([0], dtype=np.int64))
        assert stats.time_ns >= model.latency_ns()
        assert stats.read_bursts == 1
        assert stats.acts == 1

    def test_time_monotonic_in_requests(self, model):
        region = 1 << 20
        t_small = model.phase(addrs=random_block_addrs(100, region)).time_ns
        t_large = model.phase(addrs=random_block_addrs(10_000, region)).time_ns
        assert t_large > t_small

    def test_row_hits_cheaper_than_misses(self, model):
        # Sequential blocks in one row vs blocks scattered across rows.
        hits = np.arange(64, dtype=np.int64) * 64
        row_stride = model.config.spec.row_bytes * model.config.total_banks
        misses = np.arange(64, dtype=np.int64) * row_stride
        t_hits = model.phase(addrs=hits).time_ns
        t_miss = model.phase(addrs=misses).time_ns
        assert t_miss > t_hits

    def test_writes_counted(self, model):
        addrs = random_block_addrs(50, 1 << 20)
        writes = np.ones(50, dtype=bool)
        stats = model.phase(addrs=addrs, is_write=writes)
        assert stats.write_bursts == 50
        assert stats.read_bursts == 0


class TestStreams:
    def test_stream_bandwidth_near_peak(self, model):
        nbytes = 64 * 1024 * 1024
        stats = model.phase(stream_read_bytes=nbytes)
        achieved = nbytes / stats.time_ns  # GB/s
        peak = model.config.peak_bandwidth_gbps
        assert achieved > 0.9 * peak
        assert achieved <= peak + 1e-6

    def test_channels_scale_stream_bandwidth(self):
        nbytes = 16 * 1024 * 1024
        one = DRAMModel(DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1))
        two = DRAMModel(DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=2))
        t1 = one.phase(stream_read_bytes=nbytes).time_ns
        t2 = two.phase(stream_read_bytes=nbytes).time_ns
        assert t1 / t2 == pytest.approx(2.0, rel=0.01)

    def test_stream_activation_count(self, model):
        nbytes = model.config.spec.row_bytes * 10
        stats = model.phase(stream_read_bytes=nbytes)
        assert stats.acts == 10


class TestFimOps:
    def _gather(self, model, n_ops, items=8, same_row=False, scatter=False):
        ops = []
        for i in range(n_ops):
            row = 0 if same_row else i
            ops.append(
                FimRow(channel=0, rank=0, bank=(0 if same_row else i % 8),
                      row=row, items=items, is_scatter=scatter)
            )
        return model.phase(fim_ops=to_batch(ops))

    def test_gather_counts(self, model):
        stats = self._gather(model, 10)
        assert stats.fim_gathers == 10
        assert stats.fim_scatters == 0
        assert stats.internal_words == 80
        # 1 offset burst (write) + 1 data burst (read) per op on x16
        assert stats.read_bursts == 10
        assert stats.write_bursts == 10
        assert stats.fim_offset_bursts == 10

    def test_scatter_counts(self, model):
        stats = self._gather(model, 10, scatter=True)
        assert stats.fim_scatters == 10
        # offset burst + data burst, both writes
        assert stats.write_bursts == 20
        assert stats.read_bursts == 0

    def test_fim_beats_conventional_random(self, model):
        # 8000 random 8 B items in a 512 KB region.
        region = 512 * 1024
        addrs = random_block_addrs(8000, region, seed=3)
        t_conv = model.phase(addrs=addrs).time_ns
        bank, row = model.mapper.bank_key_many(addrs)
        key = row * model.config.total_banks + bank
        order = np.argsort(key, kind="stable")
        ops = []
        i = 0
        while i < 8000:
            j = min(i + 8, 8000)
            while j > i + 1 and key[order[j - 1]] != key[order[i]]:
                j -= 1
            k = order[i]
            ops.append(FimRow(0, int(bank[k]) // 8 % 4, int(bank[k]),
                             int(row[k]), j - i, False))
            i = j
        t_fim = model.phase(fim_ops=to_batch(ops)).time_ns
        assert t_conv / t_fim > 2.5  # approaching the 4x ideal

    def test_rank_level_ops_serialise_on_rank(self, ddr4_config):
        model = DRAMModel(ddr4_config)
        # Many rank-level gathers on one rank: rank data path binds.
        ops = [
            FimRow(channel=0, rank=0, bank=i % 8, row=i, items=8,
                  is_scatter=False, rank_level=True)
            for i in range(500)
        ]
        t_nmp = model.phase(fim_ops=to_batch(ops)).time_ns
        ops_bank = [
            FimRow(channel=0, rank=0, bank=i % 8, row=i, items=8,
                  is_scatter=False, rank_level=False)
            for i in range(500)
        ]
        t_fim = DRAMModel(ddr4_config).phase(fim_ops=to_batch(ops_bank)).time_ns
        assert t_nmp >= t_fim

    def test_partial_ops_cost_full_window(self, model):
        full = self._gather(model, 100, items=8).time_ns
        partial = self._gather(model, 100, items=2).time_ns
        # Partial gathers still occupy the virtual-row window.
        assert partial == pytest.approx(full, rel=0.2)


class TestLooseBursts:
    def test_bus_only_bursts(self, model):
        stats = model.phase(loose_read_bursts=1000)
        expected = 1000 * model.config.spec.tBURST
        assert stats.time_ns == pytest.approx(expected, rel=0.01)
        assert stats.read_bursts == 1000
        assert stats.acts == 0


class TestPhaseStatsMerge:
    def test_sequential_merge_adds_time(self):
        a = PhaseStats(time_ns=10.0, read_bursts=1)
        b = PhaseStats(time_ns=5.0, read_bursts=2)
        a.merge(b)
        assert a.time_ns == 15.0
        assert a.read_bursts == 3

    def test_byte_properties_follow_burst_size(self):
        s = PhaseStats(read_bursts=4, _burst_bytes=32)
        assert s.read_bytes == 128


class TestRankSensitivity:
    def test_more_ranks_help_random_traffic(self):
        region = 1 << 20
        addrs = random_block_addrs(20_000, region, seed=1)
        times = {}
        for ranks in (1, 2, 4):
            cfg = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], ranks=ranks)
            times[ranks] = DRAMModel(cfg).phase(addrs=addrs).time_ns
        assert times[1] >= times[2] >= times[4]
