"""Tests for the functional FIM device: bit-exact gather/scatter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fim import FimBank, FimChip, FimCommandError
from repro.dram.spec import DEVICES, DRAMConfig

SPEC = DEVICES["DDR4_2400_x16"]
CONFIG = DRAMConfig(spec=SPEC, channels=1, ranks=1)


@pytest.fixture
def bank():
    b = FimBank(CONFIG, rows=8)
    for r in range(8):
        b.cells[r] = np.arange(SPEC.row_words, dtype=np.uint64) + r * 10_000
    return b


class TestBankBasics:
    def test_activate_loads_row_buffer(self, bank):
        bank.activate(3)
        assert bank.read_word(5) == 30_005

    def test_precharge_writes_back(self, bank):
        bank.activate(2)
        bank.write_word(7, 999)
        bank.precharge()
        assert bank.cells[2][7] == 999

    def test_double_activate_rejected(self, bank):
        bank.activate(0)
        with pytest.raises(FimCommandError):
            bank.activate(1)

    def test_read_without_open_row_rejected(self, bank):
        with pytest.raises(FimCommandError):
            bank.read_word(0)

    def test_row_out_of_range(self, bank):
        with pytest.raises(FimCommandError):
            bank.activate(100)


class TestGather:
    def test_gather_picks_offsets(self, bank):
        bank.activate(1)
        bank.write_offset_buffer([0, 5, 9, 1000, 3, 2, 1, 7])
        bank.gather_execute()
        got = bank.read_data_buffer()
        assert got == [10_000, 10_005, 10_009, 11_000, 10_003, 10_002,
                       10_001, 10_007]

    def test_partial_gather(self, bank):
        bank.activate(0)
        bank.write_offset_buffer([42, 17])
        bank.gather_execute()
        assert bank.read_data_buffer() == [42, 17]

    def test_gather_requires_offsets(self, bank):
        bank.activate(0)
        with pytest.raises(FimCommandError):
            bank.gather_execute()

    def test_gather_requires_open_row(self, bank):
        bank.write_offset_buffer([1])
        with pytest.raises(FimCommandError):
            bank.gather_execute()

    def test_offset_out_of_row_rejected(self, bank):
        bank.activate(0)
        with pytest.raises(FimCommandError):
            bank.write_offset_buffer([SPEC.row_words])

    def test_too_many_offsets_rejected(self, bank):
        bank.activate(0)
        with pytest.raises(FimCommandError):
            bank.write_offset_buffer(list(range(9)))

    def test_empty_data_buffer_read_rejected(self, bank):
        bank.activate(0)
        with pytest.raises(FimCommandError):
            bank.read_data_buffer()


class TestScatter:
    def test_scatter_writes_offsets(self, bank):
        bank.activate(4)
        bank.write_offset_buffer([10, 20, 30])
        bank.write_data_buffer([111, 222, 333])
        bank.scatter_execute()
        assert bank.read_word(10) == 111
        assert bank.read_word(20) == 222
        assert bank.read_word(30) == 333

    def test_scatter_survives_precharge(self, bank):
        bank.activate(4)
        bank.write_offset_buffer([8])
        bank.write_data_buffer([12345])
        bank.scatter_execute()
        bank.precharge()
        assert bank.cells[4][8] == 12345

    def test_scatter_without_data_rejected(self, bank):
        bank.activate(0)
        bank.write_offset_buffer([1, 2, 3])
        bank.write_data_buffer([5])
        with pytest.raises(FimCommandError):
            bank.scatter_execute()


class TestChipHelpers:
    def test_gather_scatter_roundtrip(self):
        chip = FimChip(CONFIG, rows=4)
        offsets = [3, 99, 7, 512, 0, 1, 2, 64]
        values = [v * 11 for v in range(8)]
        chip.scatter(2, 1, offsets, values)
        assert chip.gather(2, 1, offsets) == values

    def test_gather_switches_rows(self):
        chip = FimChip(CONFIG, rows=4)
        chip.scatter(0, 0, [5], [1])
        chip.scatter(0, 3, [5], [2])
        assert chip.gather(0, 0, [5]) == [1]
        assert chip.gather(0, 3, [5]) == [2]

    def test_mismatched_scatter_args(self):
        chip = FimChip(CONFIG, rows=4)
        with pytest.raises(FimCommandError):
            chip.scatter(0, 0, [1, 2], [1])


@settings(max_examples=100, deadline=None)
@given(
    offsets=st.lists(
        st.integers(min_value=0, max_value=SPEC.row_words - 1),
        min_size=1, max_size=8, unique=True,
    ),
    row=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_gather_matches_direct_read(offsets, row, seed):
    """Property: gather returns exactly the row words at the offsets."""
    rng = np.random.default_rng(seed)
    bank = FimBank(CONFIG, rows=4)
    bank.cells[row] = rng.integers(
        0, 1 << 63, size=SPEC.row_words, dtype=np.uint64
    )
    bank.activate(row)
    bank.write_offset_buffer(offsets)
    bank.gather_execute()
    expected = [int(bank.cells[row][o]) for o in offsets]
    assert bank.read_data_buffer() == expected


@settings(max_examples=100, deadline=None)
@given(
    offsets=st.lists(
        st.integers(min_value=0, max_value=SPEC.row_words - 1),
        min_size=1, max_size=8, unique=True,
    ),
    values=st.lists(
        st.integers(min_value=0, max_value=(1 << 63) - 1),
        min_size=8, max_size=8,
    ),
)
def test_scatter_then_gather_roundtrip(offsets, values):
    """Property: scatter followed by gather is the identity."""
    chip = FimChip(CONFIG, rows=2)
    vals = values[: len(offsets)]
    chip.scatter(1, 0, offsets, vals)
    assert chip.gather(1, 0, offsets) == vals
