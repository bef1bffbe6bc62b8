"""Tests for the OLAP workload (Fig. 19b)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.spec import DEVICES, DRAMConfig
from repro.dram.system import DRAMModel
from repro.olap.queries import (
    OLAP_QUERIES,
    _gather_ops,
    query_speedups,
    run_query,
)
from repro.olap.table import Table

from reference_paths import FimRow, as_tuples


def reference_gather_ops(model, addrs):
    """The gathers of ``addrs``, one sorted element at a time: each
    (bank, row) key's elements, in stream order, fire an operation per
    ``fim_items_per_op`` of them plus a partial for the rest."""
    items = model.config.fim_items_per_op
    ch, ra, global_bank, row, key, _ = model.mapper.decode_fim_many(addrs)
    order = np.argsort(key, kind="stable")
    ops = []
    i = 0
    n = addrs.size
    while i < n:
        j = i + 1
        while j < n and key[order[j]] == key[order[i]] and j - i < items:
            j += 1
        k = order[i]
        ops.append(FimRow(
            int(ch[k]), int(ra[k]), int(global_bank[k]), int(row[k]),
            j - i, False,
        ))
        i = j
    return ops


class TestTable:
    def test_column_addresses_strided(self):
        table = Table(num_rows=16, num_fields=8, base_addr=0)
        addrs = table.column_addrs(2)
        assert addrs[0] == 16
        assert np.all(np.diff(addrs) == 64)  # 8 fields x 8 B

    def test_row_filter(self):
        table = Table(num_rows=100, num_fields=4, base_addr=0)
        rows = np.asarray([3, 7])
        addrs = table.column_addrs(0, rows)
        assert addrs.tolist() == [3 * 32, 7 * 32]

    def test_select_matches_numpy(self):
        table = Table(num_rows=1000, num_fields=4, seed=5)
        threshold = int(np.median(table.data[:, 0]))
        selected = table.select(0, lambda col: col < threshold)
        expected = np.flatnonzero(table.data[:, 0] < threshold)
        assert np.array_equal(selected, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            Table(0, 4)
        table = Table(4, 4)
        with pytest.raises(IndexError):
            table.column_addrs(9)

    def test_deterministic(self):
        a = Table(64, 4, seed=9)
        b = Table(64, 4, seed=9)
        assert np.array_equal(a.data, b.data)


class TestGatherOps:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=0, max_value=400),
        footprint_words=st.sampled_from([4, 64, 4096, 1 << 20]),
        device=st.sampled_from(["DDR4_2400_x16", "HBM2_2000"]),
        long_burst=st.booleans(),
    )
    def test_matches_reference_walk(
        self, seed, n, footprint_words, device, long_burst
    ):
        # small footprints repeat rows and words (runs longer than one
        # operation); HBM2 moves 4 items per gather, 8 with long bursts
        config = DRAMConfig(
            spec=DEVICES[device], channels=2, ranks=2,
            long_burst_fim=long_burst,
        )
        model = DRAMModel(config)
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, footprint_words, n, dtype=np.int64) * 8
        assert as_tuples(_gather_ops(model, addrs)) == reference_gather_ops(
            model, addrs
        )

    def test_strided_column_scan(self):
        model = DRAMModel(DRAMConfig(spec=DEVICES["DDR4_2400_x16"]))
        addrs = Table(4096, 16).column_addrs(1)
        ops = as_tuples(_gather_ops(model, addrs))
        assert ops == reference_gather_ops(model, addrs)
        assert sum(op.items for op in ops) == addrs.size


class TestQueries:
    def test_four_queries_defined(self):
        assert [q.name for q in OLAP_QUERIES] == ["Qa", "Qb", "Qc", "Qd"]

    def test_speedups_near_paper_value(self):
        """The paper reports ~3.8x for OLAP queries (Sec. VIII-A)."""
        speedups = query_speedups(num_rows=1 << 14)
        for name, speedup in speedups.items():
            assert 2.5 < speedup < 4.5, (name, speedup)
        mean = sum(speedups.values()) / len(speedups)
        assert mean == pytest.approx(3.8, abs=0.4)

    def test_run_query_fields(self):
        out = run_query(OLAP_QUERIES[0], num_rows=1 << 12)
        assert out["conventional_ns"] > out["piccolo_ns"] > 0
        assert out["speedup"] == pytest.approx(
            out["conventional_ns"] / out["piccolo_ns"]
        )

    def test_wide_rows_still_win(self):
        out = run_query(OLAP_QUERIES[3], num_rows=1 << 12)
        assert out["speedup"] > 2.0
