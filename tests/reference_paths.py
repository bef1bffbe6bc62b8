"""Per-address reference walks for the batched memory path.

The production engines (``access_many``, ``add_batch``,
``LocalityMonitor.observe_many``) must match, event for event, a walk
that takes one address at a time.  This module holds that walk, once:

- :func:`scalar_batch` is the cache-level reference for ``access_many``,
  a loop over the caches' scalar ``access`` oracle (which stays in
  ``src/``, the documented scalar cache protocol);
- :class:`ReferenceMSHR` (``add_read``/``add_write``, over the pure-int
  :func:`decode_scalar`) and :class:`ReferenceMonitor` (``observe``)
  are the per-event MSHR and locality-monitor steps, which exist only
  here;
- :class:`ReferenceConventionalPath` and :class:`ReferenceFineGrainedPath`
  are the two memory paths with every batch walked one address at a
  time.

``tests/test_batched_equivalence.py`` compares the engines against them,
and ``benchmarks/bench_perf_hotpath.py`` runs whole systems on them.
:class:`RequestLog` stands in for the DRAM phase a path hands its
requests to, so a test can compare the request streams themselves.

A FIM operation's compare form is a :data:`FimRow` tuple
(:func:`as_tuples` reads a :class:`~repro.dram.fim_batch.FimOpBatch`
into them; :func:`to_batch` builds a batch from them).
"""

from collections import namedtuple

import numpy as np

from repro.cache.base import BatchResult
from repro.core.collection_mshr import CollectionExtendedMSHR, _Entry
from repro.core.memory_path import (
    ConventionalMemoryPath,
    FineGrainedMemoryPath,
    LocalityMonitor,
)
from repro.dram.fim_batch import FIM_COLUMNS, FimOpBatch

#: one FIM operation as a plain tuple (``rank_level`` defaults to False)
FimRow = namedtuple("FimRow", FIM_COLUMNS, defaults=(False,))


def as_tuples(batch):
    """Every operation of ``batch``, in order, as a list of FimRows."""
    return [
        FimRow(*row) for row in zip(*(col.tolist() for col in batch.columns()))
    ]


def to_batch(rows):
    """A :class:`FimOpBatch` holding ``rows`` (FimRows or plain tuples)."""
    batch = FimOpBatch()
    for row in rows:
        batch.append(*row)
    return batch


def decode_scalar(mapper, addr):
    """Decode one address with plain integer shifts.

    Returns ``(channel, rank, global_bank, row, word_in_row)``, sliced
    independently of ``AddressMapper.decode_many``; ``global_bank``
    enumerates every bank in the system and ``word_in_row`` is the
    8-byte FIM offset within the row.
    """
    cfg = mapper.config
    spec = cfg.spec
    block = addr >> mapper.burst_shift
    channel = block & (cfg.channels - 1)
    x = block >> mapper.channel_bits
    bank = x & (spec.banks_per_rank - 1)
    x >>= mapper.bank_bits
    rank = x & (cfg.ranks - 1)
    x >>= mapper.rank_bits
    column = x & ((1 << mapper.column_bits) - 1)
    x >>= mapper.column_bits
    row = x & (cfg.rows_per_bank - 1)
    bank = bank ^ (row & (spec.banks_per_rank - 1)) \
        ^ (column & (spec.banks_per_rank - 1))
    global_bank = (channel * cfg.ranks + rank) * spec.banks_per_rank + bank
    words_per_burst = spec.burst_bytes >> 3
    word = column * words_per_burst + ((addr >> 3) & (words_per_burst - 1))
    return channel, rank, global_bank, row, word


class ReferenceMSHR(CollectionExtendedMSHR):
    """:class:`CollectionExtendedMSHR` stepped one event at a time:
    ``add_read`` / ``add_write`` return the operations each event
    issues, as FimRows.  Evictions emit through the production
    ``_drain_entry_into``."""

    @classmethod
    def like(cls, mshr):
        """A fresh reference MSHR with ``mshr``'s geometry."""
        return cls(
            mshr.mapper, num_entries=mshr.num_entries,
            items_per_op=mshr.items_per_op, rank_level=mshr.rank_level,
        )

    def _locate(self, addr):
        """Find (allocating if needed) the entry for ``addr``'s row.

        Returns the entry, the in-row word offset, and any operations the
        allocation forced out (partial gather/scatter of a conflicting
        row).
        """
        channel, rank, bank, row, word = decode_scalar(self.mapper, addr)
        row_key = row * self._total_banks + bank
        slot = row_key & (self.num_entries - 1)
        entry = self._slots[slot]
        evicted = []
        if entry is None or entry.row_key != row_key:
            if entry is not None:
                self.stats.conflict_evictions += 1
                self._drain_entry_into(
                    entry, lambda *op: evicted.append(FimRow(*op))
                )
            entry = _Entry(
                row_key=row_key, channel=channel, rank=rank, bank=bank, row=row
            )
            self._slots[slot] = entry
        return entry, word, evicted

    def _full_op(self, entry, items, scatter):
        return FimRow(
            entry.channel, entry.rank, entry.bank, entry.row,
            items, scatter, self.rank_level,
        )

    def add_read(self, addr):
        """Register a fine-grained miss; returns any issued operations."""
        entry, word, ops = self._locate(addr)
        if word in entry.sc_offsets:
            # Served from buffered write-back data (no DRAM traffic).
            self.stats.forwarded_reads += 1
            return ops
        if word in entry.ga_offsets:
            self.stats.merged_reads += 1
            return ops
        entry.ga_offsets.add(word)
        if len(entry.ga_offsets) >= self.items_per_op:
            ops.append(self._full_op(entry, len(entry.ga_offsets), False))
            self.stats.gathers_full += 1
            entry.ga_offsets.clear()
        return ops

    def add_write(self, addr):
        """Register a fine-grained write-back; returns issued operations."""
        entry, word, ops = self._locate(addr)
        if word in entry.sc_offsets:
            self.stats.merged_writes += 1
            return ops
        entry.sc_offsets.add(word)
        if len(entry.sc_offsets) >= self.items_per_op:
            ops.append(self._full_op(entry, len(entry.sc_offsets), True))
            self.stats.scatters_full += 1
            entry.sc_offsets.clear()
        return ops


class ReferenceMonitor(LocalityMonitor):
    """:class:`LocalityMonitor` stepped one address at a time."""

    @classmethod
    def like(cls, monitor):
        """A fresh reference monitor with ``monitor``'s window and
        threshold (None for None)."""
        if monitor is None:
            return None
        return cls(window=monitor.window, threshold=monitor.threshold)

    def observe(self, addr):
        last = self._last_addr
        self._last_addr = addr
        if last is None:
            return
        if addr - last == 8:
            self._sequential += 1
        self._pairs += 1
        if self._pairs >= self.window - 1:
            self.bypass = self._sequential / self._pairs >= self.threshold
            self._pairs = 0
            self._sequential = 0


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
        """(FIM ops as FimRows, burst addresses, write flags) received
        since the last take, as plain lists."""
        taken = (as_tuples(self.fim_ops), self.addrs, self.writes)
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
    ``mshr.add_read``/``add_write`` in turn.  The MSHR and monitor it is
    given are replaced by fresh reference ones of the same geometry."""

    def __init__(self, cache, mshr, locality_monitor=None):
        super().__init__(
            cache, ReferenceMSHR.like(mshr), ReferenceMonitor.like(locality_monitor)
        )

    def _issue(self, ops):
        for op in ops:
            self.fim_ops.append(*op)

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
                    self._issue(add(ev_addr))
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
            self._issue(self.mshr.add_write(wb_addr))
        self.fim_ops.extend(self.mshr.flush())
        self._hand_off(phase)
