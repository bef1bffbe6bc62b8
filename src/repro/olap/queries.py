"""The four OLAP-style select queries of Fig. 19b (Qa-Qd).

Modelled after the RCNVMBench select statements the paper evaluates: each
query scans one or two columns of a row-store table, optionally
materialising a second column for the selected rows.  Queries differ in
row width (stride) and selectivity, spanning the stride range where
in-row gathering pays off.

Timing: the conventional system reads one 64 B burst per touched field
(strides >= 64 B; narrower strides share bursts); Piccolo gathers eight
fields per in-row operation.  Both run on the same
:class:`~repro.dram.system.DRAMModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.spec import DRAMConfig, default_config
from repro.dram.fim_batch import FimOpBatch
from repro.dram.system import DRAMModel
from repro.utils.sorting import run_starts


@dataclass(frozen=True)
class OLAPQuery:
    """One select-style query over the synthetic row store."""

    name: str
    num_fields: int      # row width in 8 B fields (stride = 8x this)
    selectivity: float   # fraction of rows whose payload is materialised
    description: str


OLAP_QUERIES: tuple[OLAPQuery, ...] = (
    OLAPQuery("Qa", 8, 0.10, "select payload where key < p (64 B rows)"),
    OLAPQuery("Qb", 16, 0.10, "select payload where key < p (128 B rows)"),
    OLAPQuery("Qc", 16, 0.50, "select payload, half the rows match"),
    OLAPQuery("Qd", 32, 0.02, "needle-in-haystack over wide rows"),
)


def _gather_ops(model: DRAMModel, addrs: np.ndarray) -> FimOpBatch:
    """Group a fine-grained address stream into in-row gather operations.

    Mirrors the collection-extended MSHR: elements accumulate per
    (bank, row) -- regardless of interleaving order -- and fire one
    operation per ``items_per_op`` offsets, plus a partial for leftovers.
    In (bank, row) key order, each key's elements are cut into
    operations at every ``items_per_op``-th position of its run.
    """
    items = model.config.fim_items_per_op
    ch, ra, global_bank, row, key, _ = model.mapper.decode_fim_many(addrs)
    order = np.argsort(key, kind="stable")
    starts = run_starts(key[order])
    in_run = np.arange(order.size)
    in_run -= np.repeat(starts, np.diff(starts, append=order.size))
    op_start = np.flatnonzero(in_run % items == 0)
    first = order[op_start]
    return FimOpBatch.from_columns(
        ch[first], ra[first], global_bank[first], row[first],
        np.diff(op_start, append=order.size),
        np.zeros(first.size, dtype=bool), np.zeros(first.size, dtype=bool),
    )


def run_query(
    query: OLAPQuery,
    num_rows: int = 1 << 16,
    config: DRAMConfig | None = None,
) -> dict[str, float]:
    """Evaluate one query on conventional vs. Piccolo memory.

    Returns a dict with ``conventional_ns``, ``piccolo_ns``, ``speedup``.
    """
    from repro.olap.table import Table  # local import avoids cycle

    config = config if config is not None else default_config()
    table = Table(num_rows, query.num_fields)
    model_conv = DRAMModel(config)
    model_fim = DRAMModel(config)

    # Phase 1: scan the key column (every row).
    key_addrs = table.column_addrs(0)
    # Phase 2: materialise the payload column for selected rows.
    threshold = np.quantile(table.data[:, 0], query.selectivity)
    selected = table.select(0, lambda col: col <= threshold)
    payload_addrs = table.column_addrs(min(1, table.num_fields - 1), selected)

    conv_ns = 0.0
    fim_ns = 0.0
    for addrs in (key_addrs, payload_addrs):
        if addrs.size == 0:
            continue
        # Conventional: distinct bursts only (narrow strides share bursts).
        blocks = np.unique(addrs >> 6) << 6
        conv_ns += model_conv.phase(addrs=blocks).time_ns
        fim_ns += model_fim.phase(fim_ops=_gather_ops(model_fim, addrs)).time_ns
    return {
        "conventional_ns": conv_ns,
        "piccolo_ns": fim_ns,
        "speedup": conv_ns / fim_ns if fim_ns else float("inf"),
    }


def query_speedups(
    num_rows: int = 1 << 16, config: DRAMConfig | None = None
) -> dict[str, float]:
    """Speedup per query (the Fig. 19b bars; paper reports ~3.8x)."""
    return {
        q.name: run_query(q, num_rows, config)["speedup"] for q in OLAP_QUERIES
    }
