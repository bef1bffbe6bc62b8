"""Per-address reference walks for the batched memory path.

The production engines (``access_many``, ``add_batch``,
``LocalityMonitor.observe_many``) must match, event for event, a walk
over the per-event oracles that stay in ``src/``: ``cache.access``,
``mshr.add_read``/``add_write`` and ``LocalityMonitor.observe``.  This
module holds that walk, once:

- :func:`scalar_batch` is the cache-level reference for ``access_many``;
- :class:`ReferenceConventionalPath` and :class:`ReferenceFineGrainedPath`
  are the two memory paths with every batch walked one address at a
  time.

``tests/test_batched_equivalence.py`` compares the engines against them,
and ``benchmarks/bench_perf_hotpath.py`` runs whole systems on them.
:class:`RequestLog` stands in for the DRAM phase a path hands its
requests to, so a test can compare the request streams themselves.
"""

import numpy as np

from repro.cache.base import BatchResult
from repro.core.memory_path import ConventionalMemoryPath, FineGrainedMemoryPath
from repro.dram.fim_batch import FimOpBatch


class RequestLog:
    """A phase stand-in that keeps, in order, every FIM op and burst a
    path hands it, and counts the hand-offs."""

    def __init__(self):
        self.fim_ops = FimOpBatch()
        self.addrs = []
        self.writes = []
        self.adds = 0

    def add(self, addrs=None, is_write=None, fim_ops=None):
        self.adds += 1
        if fim_ops is not None:
            self.fim_ops.extend(fim_ops)
        if addrs is not None:
            self.addrs += np.asarray(addrs).tolist()
            self.writes += np.asarray(is_write).tolist()

    def take(self):
        """(FIM ops, burst addresses, write flags) received since the
        last take, as plain lists."""
        taken = (self.fim_ops.to_ops(), self.addrs, self.writes)
        self.fim_ops, self.addrs, self.writes = FimOpBatch(), [], []
        return taken


def scalar_batch(cache, addrs, is_write):
    """``cache.access_many`` as a loop over ``cache.access``."""
    ev_addr, ev_is_wb, ev_bytes = [], [], []
    hits = 0
    addr_list = np.asarray(addrs, dtype=np.int64).tolist()
    for addr in addr_list:
        hit, fill_addr, fill_bytes, writebacks = cache.access(addr, is_write)
        if hit:
            hits += 1
        else:
            ev_addr.append(fill_addr)
            ev_is_wb.append(False)
            ev_bytes.append(fill_bytes)
        for wb_addr, wb_bytes in writebacks or ():
            ev_addr.append(wb_addr)
            ev_is_wb.append(True)
            ev_bytes.append(wb_bytes)
    return BatchResult(
        accesses=len(addr_list),
        hits=hits,
        ev_addr=np.asarray(ev_addr, dtype=np.int64),
        ev_is_wb=np.asarray(ev_is_wb, dtype=bool),
        ev_bytes=np.asarray(ev_bytes, dtype=np.int64),
    )


class ReferenceConventionalPath(ConventionalMemoryPath):
    """:class:`ConventionalMemoryPath` with every batch going through
    ``cache.access`` one address at a time."""

    def _run_batch(self, addrs, rmw):
        res = scalar_batch(self.cache, addrs, rmw)
        return res.ev_addr, res.ev_is_wb


class ReferenceFineGrainedPath(FineGrainedMemoryPath):
    """:class:`FineGrainedMemoryPath` with every address going through
    ``monitor.observe``, ``cache.access`` and
    ``mshr.add_read``/``add_write`` in turn."""

    def _run_batch(self, addrs, rmw):
        monitor = self.monitor
        bursts = []
        for addr in addrs.tolist():
            if monitor is not None:
                monitor.observe(addr)
            bypass = monitor is not None and monitor.bypass
            hit, fill_addr, _, writebacks = self.cache.access(addr, rmw)
            events = [] if hit else [(fill_addr, False)]
            events += [(wb_addr, True) for wb_addr, _ in writebacks or ()]
            for ev_addr, is_wb in events:
                if not bypass:
                    add = self.mshr.add_write if is_wb else self.mshr.add_read
                    self.fim_ops.extend(add(ev_addr))
                    continue
                # conventional bursts: consecutive words of one 64 B
                # block share a burst (per fill/write-back stream)
                block = ev_addr & ~63
                last = "_last_bypass_wb" if is_wb else "_last_bypass_fill"
                if block != getattr(self, last):
                    bursts.append((block, is_wb))
                    setattr(self, last, block)
        if bursts:
            blocks, writes = zip(*bursts)
            self._bypass.append_arrays(
                np.asarray(blocks, dtype=np.int64),
                np.asarray(writes, dtype=bool),
            )

    def flush(self, phase):
        for wb_addr, _ in self.cache.flush():
            self.fim_ops.extend(self.mshr.add_write(wb_addr))
        self.fim_ops.extend(self.mshr.flush())
        self._hand_off(phase)
