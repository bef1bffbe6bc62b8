"""Tests for the collection-extended MSHR (Sec. V-C, Fig. 7).

Every event goes through the production ``add_batch``; a test that
steps one event at a time passes single-event arrays.
"""

import numpy as np
import pytest

from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.dram.address import AddressMapper
from repro.dram.spec import DEVICES, DRAMConfig

from reference_paths import as_tuples, decode_scalar


@pytest.fixture
def mapper():
    config = DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1, ranks=1)
    return AddressMapper(config)


def make_mshr(mapper, **kwargs):
    defaults = dict(num_entries=16, items_per_op=8)
    defaults.update(kwargs)
    return CollectionExtendedMSHR(mapper, **defaults)


def add_read(mshr, addr):
    """One fine-grained miss through ``add_batch``: the issued ops."""
    return as_tuples(mshr.add_batch(np.asarray([addr]), np.asarray([False])))


def add_write(mshr, addr):
    """One fine-grained write-back through ``add_batch``: the issued ops."""
    return as_tuples(mshr.add_batch(np.asarray([addr]), np.asarray([True])))


def flush(mshr):
    """Drain every pending entry: the issued ops."""
    return as_tuples(mshr.flush())


def same_row_addrs(mapper, n, row_block=0):
    """n distinct 8 B word addresses within one DRAM row (n <= 8).

    Words inside one 64 B block always share a (bank, row); blocks
    ``row_block`` stripes apart differ in row.
    """
    assert n <= 8
    cfg = mapper.config
    stripe = (
        cfg.channels * cfg.ranks * cfg.spec.banks_per_rank
        * cfg.spec.row_bytes
    )
    base = row_block * stripe
    return [base + i * 8 for i in range(n)]


class TestGatherCollection:
    def test_full_gather_at_eight(self, mapper):
        mshr = make_mshr(mapper)
        ops = []
        for addr in same_row_addrs(mapper, 8):
            ops.extend(add_read(mshr, addr))
        assert len(ops) == 1
        assert ops[0].items == 8
        assert not ops[0].is_scatter
        assert mshr.stats.gathers_full == 1

    def test_no_op_before_eight(self, mapper):
        mshr = make_mshr(mapper)
        ops = []
        for addr in same_row_addrs(mapper, 7):
            ops.extend(add_read(mshr, addr))
        assert ops == []

    def test_duplicate_offsets_merge(self, mapper):
        mshr = make_mshr(mapper)
        addr = same_row_addrs(mapper, 1)[0]
        assert add_read(mshr, addr) == []
        assert add_read(mshr, addr) == []
        assert mshr.stats.merged_reads == 1

    def test_flush_issues_partial(self, mapper):
        mshr = make_mshr(mapper)
        for addr in same_row_addrs(mapper, 3):
            add_read(mshr, addr)
        ops = flush(mshr)
        assert len(ops) == 1
        assert ops[0].items == 3
        assert mshr.stats.gathers_partial == 1

    def test_flush_idempotent(self, mapper):
        mshr = make_mshr(mapper)
        add_read(mshr, 8)
        flush(mshr)
        assert flush(mshr) == []


class TestScatterCollection:
    def test_full_scatter_at_eight(self, mapper):
        mshr = make_mshr(mapper)
        ops = []
        for addr in same_row_addrs(mapper, 8):
            ops.extend(add_write(mshr, addr))
        assert len(ops) == 1
        assert ops[0].is_scatter
        assert mshr.stats.scatters_full == 1

    def test_write_coalescing(self, mapper):
        mshr = make_mshr(mapper)
        addr = same_row_addrs(mapper, 1)[0]
        add_write(mshr, addr)
        add_write(mshr, addr)
        assert mshr.stats.merged_writes == 1


class TestForwarding:
    def test_read_after_write_forwarded(self, mapper):
        """A read hitting a pending SC-MSHR offset is served from the
        write-back data (Fig. 7's first controller rule)."""
        mshr = make_mshr(mapper)
        addr = same_row_addrs(mapper, 1)[0]
        add_write(mshr, addr)
        ops = add_read(mshr, addr)
        assert ops == []
        assert mshr.stats.forwarded_reads == 1
        # The gather side must NOT have recorded an offset.
        assert flush(mshr)[0].is_scatter


class TestConflictEviction:
    def test_conflicting_row_evicts_partial(self, mapper):
        mshr = make_mshr(mapper, num_entries=1)  # every row conflicts
        a = same_row_addrs(mapper, 1, row_block=0)[0]
        b = same_row_addrs(mapper, 1, row_block=1)[0]
        add_read(mshr, a)
        ops = add_read(mshr, b)
        assert len(ops) == 1
        assert ops[0].items == 1
        assert mshr.stats.conflict_evictions == 1
        assert mshr.stats.gathers_partial == 1

    def test_eviction_drains_both_halves(self, mapper):
        mshr = make_mshr(mapper, num_entries=1)
        a = same_row_addrs(mapper, 2, row_block=0)
        b = same_row_addrs(mapper, 1, row_block=1)[0]
        add_read(mshr, a[0])
        add_write(mshr, a[1])
        ops = add_read(mshr, b)
        kinds = sorted(op.is_scatter for op in ops)
        assert kinds == [False, True]


class TestConfiguration:
    def test_items_per_op_respected(self, mapper):
        mshr = make_mshr(mapper, items_per_op=4)
        ops = []
        for addr in same_row_addrs(mapper, 4):
            ops.extend(add_read(mshr, addr))
        assert len(ops) == 1
        assert ops[0].items == 4

    def test_rank_level_flag_propagates(self, mapper):
        mshr = make_mshr(mapper, rank_level=True)
        for addr in same_row_addrs(mapper, 8):
            ops = add_read(mshr, addr)
        assert ops[0].rank_level

    def test_entries_power_of_two(self, mapper):
        with pytest.raises(ValueError):
            make_mshr(mapper, num_entries=3)

    def test_op_location_matches_address(self, mapper):
        mshr = make_mshr(mapper)
        addr = same_row_addrs(mapper, 1, row_block=5)[0]
        add_read(mshr, addr)
        op = flush(mshr)[0]
        ch, ra, gb, ro, _ = decode_scalar(mapper, addr)
        assert (op.channel, op.rank, op.bank, op.row) == (ch, ra, gb, ro)


class TestAddBatchValidation:
    @pytest.mark.parametrize("wb_len", [3, 41], ids=["too-short", "too-long"])
    def test_is_wb_length_must_match_addrs(self, mapper, wb_len):
        """A mask of the wrong length raises instead of truncating the
        event stream, and registers nothing."""
        mshr = make_mshr(mapper)
        addrs = np.arange(40, dtype=np.int64) * 8
        with pytest.raises(ValueError, match="is_wb"):
            mshr.add_batch(addrs, np.zeros(wb_len, dtype=bool))
        assert mshr.stats == make_mshr(mapper).stats
        assert flush(mshr) == []
