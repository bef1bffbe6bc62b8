"""Tests for address mapping: decode consistency and coverage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.address import AddressMapper
from repro.dram.spec import DEVICES, DRAMConfig

from reference_paths import decode_scalar


@pytest.fixture
def mapper(ddr4_config):
    return AddressMapper(ddr4_config)


class TestDecode:
    def test_scalar_matches_vectorised(self, mapper):
        """``decode_fim_many`` against the test suite's independent
        pure-int slicing of the interleave."""
        addrs = np.arange(0, 1 << 20, 8192, dtype=np.int64) + 8
        ch, ra, gb, ro, key, word = mapper.decode_fim_many(addrs)
        for i, addr in enumerate(addrs.tolist()):
            s_ch, s_ra, s_gb, s_ro, s_w = decode_scalar(mapper, addr)
            assert s_ch == ch[i]
            assert s_ra == ra[i]
            assert s_gb == gb[i]
            assert s_ro == ro[i]
            assert s_w == word[i]
            assert key[i] == s_ro * mapper.config.total_banks + s_gb

    def test_consecutive_blocks_interleave_channels(self):
        config = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=2, ranks=1)
        m = AddressMapper(config)
        addrs = np.arange(4) * 64
        ch = m.channel_of_many(addrs)
        assert ch.tolist() == [0, 1, 0, 1]

    def test_row_locality_of_streams(self, mapper):
        # Bank-interleaved mapping: a stream keeps every bank inside one
        # row until the whole row stripe is consumed.
        cfg = mapper.config
        stripe_blocks = (
            cfg.channels * cfg.ranks * cfg.spec.banks_per_rank
            * (cfg.spec.row_bytes // 64)
        )
        addrs = np.arange(stripe_blocks) * 64
        bank, row = mapper.bank_key_many(addrs)
        for b in range(cfg.total_banks):
            assert np.unique(row[bank == b]).size == 1

    def test_consecutive_blocks_rotate_banks(self, mapper):
        nbanks = mapper.config.spec.banks_per_rank
        addrs = np.arange(nbanks) * 64
        bank, _ = mapper.bank_key_many(addrs)
        assert np.unique(bank).size == nbanks

    def test_word_in_row_range(self, mapper):
        addrs = np.arange(0, 1 << 16, 8, dtype=np.int64)
        words = mapper.decode_fim_many(addrs)[5]
        assert words.min() >= 0
        assert words.max() < mapper.config.spec.row_words

    def test_decode_scalar_word_granularity(self, mapper):
        # Two addresses 8 B apart within one burst share everything but
        # the word offset, in the reference decode and in decode_fim_many.
        a = decode_scalar(mapper, 1 << 14)
        b = decode_scalar(mapper, (1 << 14) + 8)
        assert a[:4] == b[:4]
        assert b[4] == a[4] + 1
        ch, ra, gb, ro, key, word = mapper.decode_fim_many(
            np.asarray([1 << 14, (1 << 14) + 8])
        )
        for field in (ch, ra, gb, ro, key):
            assert field[0] == field[1]
        assert word[1] == word[0] + 1


class TestBankKeys:
    def test_row_key_distinct_per_bank(self, mapper):
        # Same row index in different banks must give different keys.
        a = np.asarray([0], dtype=np.int64)
        b = np.asarray([64], dtype=np.int64)  # next bank, same row index
        assert mapper.decode_fim_many(a)[4][0] != mapper.decode_fim_many(b)[4][0]

    def test_global_bank_range(self, mapper):
        addrs = np.arange(0, 1 << 22, 64, dtype=np.int64)
        bank, _ = mapper.bank_key_many(addrs)
        assert bank.min() >= 0
        assert bank.max() < mapper.config.total_banks


@settings(max_examples=200, deadline=None)
@given(addr=st.integers(min_value=0, max_value=(1 << 34) - 8))
def test_scalar_decode_fields_in_range(addr):
    config = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=2, ranks=4)
    mapper = AddressMapper(config)
    ch, ra, gb, ro, _, word = (
        int(field[0]) for field in mapper.decode_fim_many(np.asarray([addr]))
    )
    assert (ch, ra, gb, ro, word) == decode_scalar(mapper, addr)
    assert 0 <= ch < config.channels
    assert 0 <= ra < config.ranks
    assert 0 <= gb < config.total_banks
    assert 0 <= ro < config.rows_per_bank
    assert 0 <= word < config.spec.row_words


@settings(max_examples=100, deadline=None)
@given(
    block=st.integers(min_value=0, max_value=(1 << 26) - 1),
    offset=st.integers(min_value=0, max_value=63),
)
def test_same_block_same_bank_row(block, offset):
    """All bytes of one burst land in the same (bank, row, column)."""
    config = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=2, ranks=2)
    mapper = AddressMapper(config)
    base = block * 64
    ch, ra, gb, ro, _, _ = mapper.decode_fim_many(np.asarray([base, base + offset]))
    for field in (ch, ra, gb, ro):
        assert field[0] == field[1]
