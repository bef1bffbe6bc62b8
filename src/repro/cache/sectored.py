"""Sectored cache (Liptay, IBM S/360 Model 85): one tag per line,
per-sector valid/dirty bits.

The oldest fine-grained design in the Fig. 11 sweep.  A line-granularity
tag covers ``line_bytes`` of address space, but data moves at sector
(8 B) granularity: a miss fetches only the requested sector and dirty
sectors write back individually.  On top of Piccolo-FIM those sector
fills can be gathered, which is why the paper includes it -- and its
weakness is exactly what Sec. V-A / Fig. 6 (left) show: a single
resident sector still claims a whole line of capacity, so sparse graph
accesses waste most of the array and the design can land *below* the
conventional baseline.

Storage layout (batched engine, docs/CACHE_ENGINES.md): per-set line
state lives in contiguous NumPy arrays -- block id, per-sector
valid/dirty masks, recency stamp -- rather than per-line Python lists.
:meth:`access` walks the arrays one address at a time;
:meth:`access_many` vectorizes the address decomposition for the whole
batch, materialises the touched sets into flat structures (block->way
dict, MRU-first order list), and replays the batch in one tight loop.
Both paths are event-for-event identical (enforced by
``tests/test_batched_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import AccessResult, BaseCache, BatchResult
from repro.cache.batched import (
    BatchedCacheEngine,
    empty_batch,
    pack_events,
    split_free_mru,
)
from repro.utils.units import log2_exact


class SectoredCache(BatchedCacheEngine, BaseCache):
    """LRU sectored cache: line-granularity tags, sector-granularity data."""

    # Replay state layout (see cache/batched.py).
    CANONICAL_ARRAYS = ("_block", "_valid", "_dirty")
    STATE_ARRAYS = ("_block", "_valid", "_dirty", "_ord")
    STATE_SCALARS = ("_clock",)

    def __init__(
        self,
        size_bytes: int,
        ways: int = 8,
        line_bytes: int = 64,
        sector_bytes: int = 8,
        addr_bits: int = 48,
    ) -> None:
        super().__init__()
        if line_bytes % sector_bytes != 0:
            raise ValueError("line must be a multiple of the sector size")
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must be a multiple of ways * line size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.sectors_per_line = line_bytes // sector_bytes
        self.addr_bits = addr_bits
        self.num_sets = size_bytes // (ways * line_bytes)
        log2_exact(self.num_sets)
        self._line_shift = log2_exact(line_bytes)
        self._sector_shift = log2_exact(sector_bytes)
        self._set_mask = self.num_sets - 1
        if self.sectors_per_line > 63:
            raise ValueError(
                "sectors_per_line > 63 exceeds the int64 valid-mask width"
            )
        # Array-backed line state (block -1 = invalid way).
        shape = (self.num_sets, ways)
        self._block = np.full(shape, -1, dtype=np.int64)
        self._valid = np.zeros(shape, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=np.int64)
        self._ord = np.zeros(shape, dtype=np.int64)
        self._clock = 1

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessResult:
        stats = self.stats
        stats.accesses += 1
        stats.requested_bytes += self.sector_bytes
        block = addr >> self._line_shift
        set_idx = block & self._set_mask
        sector = (addr >> self._sector_shift) & (self.sectors_per_line - 1)
        sector_bit = 1 << sector
        block_row = self._block[set_idx].tolist()

        for w, b in enumerate(block_row):
            if b == block:
                if int(self._valid[set_idx, w]) & sector_bit:
                    stats.hits += 1
                    if is_write:
                        self._dirty[set_idx, w] |= sector_bit
                    self._touch(set_idx, w)
                    return AccessResult(hit=True)
                # Line present, sector invalid: fetch just the sector.
                stats.misses += 1
                stats.fill_bytes += self.sector_bytes
                self._valid[set_idx, w] |= sector_bit
                if is_write:
                    self._dirty[set_idx, w] |= sector_bit
                self._touch(set_idx, w)
                return AccessResult(
                    hit=False,
                    fill_addr=(block << self._line_shift)
                    | (sector << self._sector_shift),
                    fill_bytes=self.sector_bytes,
                )

        # Line miss: allocate a line, fetch only the requested sector.
        stats.misses += 1
        stats.fill_bytes += self.sector_bytes
        writebacks = None
        free = [w for w, b in enumerate(block_row) if b == -1]
        if free:
            w = free[0]
        else:
            ord_row = self._ord[set_idx]
            w = min(range(self.ways), key=lambda i: ord_row[i])
            stats.evictions += 1
            writebacks = self._dirty_sectors(set_idx, w)
        self._block[set_idx, w] = block
        self._valid[set_idx, w] = sector_bit
        self._dirty[set_idx, w] = sector_bit if is_write else 0
        self._touch(set_idx, w)
        return AccessResult(
            hit=False,
            fill_addr=(block << self._line_shift) | (sector << self._sector_shift),
            fill_bytes=self.sector_bytes,
            writebacks=writebacks,
        )

    def _touch(self, set_idx: int, way: int) -> None:
        self._ord[set_idx, way] = self._clock
        self._clock += 1

    def _dirty_sectors(self, set_idx: int, way: int) -> list[tuple[int, int]] | None:
        dirty = int(self._dirty[set_idx, way])
        if not dirty:
            return None
        base = int(self._block[set_idx, way]) << self._line_shift
        writebacks = []
        for s in range(self.sectors_per_line):
            if dirty & (1 << s):
                writebacks.append(
                    (base | (s << self._sector_shift), self.sector_bytes)
                )
        self.stats.writeback_bytes += len(writebacks) * self.sector_bytes
        return writebacks

    # ------------------------------------------------------------------
    # Batched path (whole-tile address arrays)
    # ------------------------------------------------------------------
    def access_many(self, addrs: np.ndarray, is_write: bool) -> BatchResult:
        addrs = np.asarray(addrs, dtype=np.int64)
        n = int(addrs.size)
        if n == 0:
            return empty_batch()

        line_shift = self._line_shift
        sector_shift = self._sector_shift
        sector_bytes = self.sector_bytes

        blocks = addrs >> line_shift
        sector_a = (addrs >> sector_shift) & (self.sectors_per_line - 1)
        bit_a = np.left_shift(1, sector_a)
        fill_a = (blocks << line_shift) | (sector_a << sector_shift)

        blk_l = blocks.tolist()
        set_l = (blocks & self._set_mask).tolist()
        bit_l = bit_a.tolist()
        fill_l = fill_a.tolist()

        # Materialise the touched sets; ``order`` is MRU-first so the
        # LRU victim is its tail (no per-miss min() scan).
        state: dict[int, tuple] = {}
        for s in set(set_l):
            blk = self._block[s].tolist()
            valid = self._valid[s].tolist()
            dirty = self._dirty[s].tolist()
            ord_ = self._ord[s].tolist()
            free, order = split_free_mru(blk, ord_)
            bmap = {blk[w]: w for w in order}
            state[s] = (blk, valid, dirty, ord_, bmap, free, order)

        events: list[int] = []
        clk = self._clock
        hits = misses = evictions = wb_events = 0
        cur_s = -1
        blk = valid = dirty = ord_ = bmap = free = order = None

        for b, s, bit, fill in zip(blk_l, set_l, bit_l, fill_l):
            if s != cur_s:
                blk, valid, dirty, ord_, bmap, free, order = state[s]
                cur_s = s
            w = bmap.get(b)
            if w is not None:
                if valid[w] & bit:
                    hits += 1
                else:
                    # Line present, sector invalid: sector fill only.
                    misses += 1
                    valid[w] |= bit
                    events.append(fill)
                if is_write:
                    dirty[w] |= bit
                ord_[w] = clk
                clk += 1
                if order[0] != w:
                    order.remove(w)
                    order.insert(0, w)
                continue
            # Line miss: the fill precedes the victim's write-backs.
            misses += 1
            events.append(fill)
            if free:
                w = free.pop(0)
            else:
                w = order.pop()
                evictions += 1
                d = dirty[w]
                if d:
                    base = blk[w] << line_shift
                    o = 0
                    while d:
                        if d & 1:
                            events.append(base | (o << sector_shift) | 1)
                            wb_events += 1
                        d >>= 1
                        o += 1
                del bmap[blk[w]]
            blk[w] = b
            valid[w] = bit
            dirty[w] = bit if is_write else 0
            ord_[w] = clk
            clk += 1
            bmap[b] = w
            order.insert(0, w)

        # Write the mutated sets back to the arrays.
        for s, (blk, valid, dirty, ord_, _, _, _) in state.items():
            self._block[s] = blk
            self._valid[s] = valid
            self._dirty[s] = dirty
            self._ord[s] = ord_
        self._clock = clk

        stats = self.stats
        stats.accesses += n
        stats.requested_bytes += n * sector_bytes
        stats.hits += hits
        stats.misses += misses
        stats.fill_bytes += misses * sector_bytes
        stats.writeback_bytes += wb_events * sector_bytes
        stats.evictions += evictions

        return pack_events(n, hits, events, sector_bytes)

    # ------------------------------------------------------------------
    def flush(self) -> list[tuple[int, int]]:
        writebacks: list[tuple[int, int]] = []
        for set_idx in range(self.num_sets):
            valid = [
                w for w in range(self.ways) if self._block[set_idx, w] != -1
            ]
            # MRU-first, matching the original list ordering
            for w in sorted(valid, key=lambda i: -int(self._ord[set_idx, i])):
                wb = self._dirty_sectors(set_idx, w)
                if wb:
                    writebacks.extend(wb)
        self._block.fill(-1)
        self._valid.fill(0)
        self._dirty.fill(0)
        self._ord.fill(0)
        return writebacks

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.size_bytes

    @property
    def tag_overhead_bits(self) -> int:
        set_bits = log2_exact(self.num_sets)
        tag_bits = self.addr_bits - set_bits - self._line_shift
        lines = self.num_sets * self.ways
        # tag + (valid + dirty) per sector
        return lines * (tag_bits + 2 * self.sectors_per_line)
