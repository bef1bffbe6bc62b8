"""Scrabble cache (Zhang et al., ToC'20): adaptive merged blocks.

Scrabble keeps word-granularity residency like an 8 B-line cache, but
packs words from *different* addresses into shared physical lines (the
"merged block"), identified by a per-slot map of full sub-tags.  The
merge map lets any word of the set's address space land in any slot of
the set's physical lines, which behaves like an 8 B-line cache whose
associativity is ``ways x 8`` slots -- the reason the paper measures it
"achieving similar speedup compared to 8B-line cache" -- at the price
of a much larger metadata store and comparator tree (per-slot full
tags plus the merge map), the "design complexity and metadata overhead"
Sec. VII-D calls out.

Storage layout (batched engine, docs/CACHE_ENGINES.md): the per-set
slot pool lives in contiguous NumPy arrays -- resident word id, dirty
flag, recency stamp -- rather than per-slot Python lists.
:meth:`access` walks the arrays one address at a time;
:meth:`access_many` vectorizes the word/set decomposition, materialises
the touched sets into flat structures (word->slot dict, MRU-first order
list), and replays the batch in one tight loop.  Both paths are
event-for-event identical (``tests/test_batched_equivalence.py``).
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

#: word slots per physical 64 B line
SLOTS_PER_LINE = 8
#: merge-map bits per slot (slot-occupancy + way routing)
MERGE_MAP_BITS = 8


class ScrabbleCache(BatchedCacheEngine, BaseCache):
    """Merged-block word cache.

    Args:
        size_bytes: data capacity (fully usable; metadata is dedicated).
        ways: physical lines per set.
        addr_bits: physical address width for tag accounting.
    """

    # Replay state layout (see cache/batched.py).
    CANONICAL_ARRAYS = ("_word", "_dirty")
    STATE_ARRAYS = ("_word", "_dirty", "_ord")
    STATE_SCALARS = ("_clock",)

    def __init__(self, size_bytes: int, ways: int = 8,
                 addr_bits: int = 48) -> None:
        super().__init__()
        if size_bytes % (ways * 64) != 0:
            raise ValueError("size must be a multiple of ways * 64")
        self.size_bytes = size_bytes
        self.ways = ways
        self.addr_bits = addr_bits
        self.num_sets = size_bytes // (ways * 64)
        log2_exact(self.num_sets)
        self._set_mask = self.num_sets - 1
        self._slots_per_set = ways * SLOTS_PER_LINE
        # Array-backed slot pool (word -1 = free slot).
        shape = (self.num_sets, self._slots_per_set)
        self._word = np.full(shape, -1, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=np.int64)
        self._ord = np.zeros(shape, dtype=np.int64)
        self._clock = 1

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessResult:
        """One 8 B access against the set's merged word slots."""
        stats = self.stats
        stats.accesses += 1
        stats.requested_bytes += 8
        word = addr >> 3
        set_idx = (word >> 3) & self._set_mask
        word_row = self._word[set_idx]
        match = np.flatnonzero(word_row == word)
        if match.size:
            slot = int(match[0])
            stats.hits += 1
            if is_write:
                self._dirty[set_idx, slot] = 1
            self._ord[set_idx, slot] = self._clock
            self._clock += 1
            return AccessResult(hit=True)

        stats.misses += 1
        stats.fill_bytes += 8
        writebacks = None
        free = np.flatnonzero(word_row == -1)
        if free.size:
            slot = int(free[0])
        else:
            ord_row = self._ord[set_idx]
            slot = int(np.argmin(ord_row))
            stats.evictions += 1
            if self._dirty[set_idx, slot]:
                stats.writeback_bytes += 8
                writebacks = [(int(word_row[slot]) * 8, 8)]
        self._word[set_idx, slot] = word
        self._dirty[set_idx, slot] = 1 if is_write else 0
        self._ord[set_idx, slot] = self._clock
        self._clock += 1
        return AccessResult(
            hit=False,
            fill_addr=word * 8,
            fill_bytes=8,
            writebacks=writebacks,
        )

    # ------------------------------------------------------------------
    # Batched path (whole-tile address arrays)
    # ------------------------------------------------------------------
    def access_many(self, addrs: np.ndarray, is_write: bool) -> BatchResult:
        addrs = np.asarray(addrs, dtype=np.int64)
        n = int(addrs.size)
        if n == 0:
            return empty_batch()

        words = addrs >> 3
        word_l = words.tolist()
        set_l = ((words >> 3) & self._set_mask).tolist()

        # Materialise the touched sets; ``order`` is MRU-first so the
        # LRU victim is its tail.
        state: dict[int, tuple] = {}
        for s in set(set_l):
            wrd = self._word[s].tolist()
            dirty = self._dirty[s].tolist()
            ord_ = self._ord[s].tolist()
            free, order = split_free_mru(wrd, ord_)
            wmap = {wrd[slot]: slot for slot in order}
            state[s] = (wrd, dirty, ord_, wmap, free, order)

        events: list[int] = []
        clk = self._clock
        hits = misses = evictions = wb_events = 0
        cur_s = -1
        wrd = dirty = ord_ = wmap = free = order = None

        for word, s in zip(word_l, set_l):
            if s != cur_s:
                wrd, dirty, ord_, wmap, free, order = state[s]
                cur_s = s
            slot = wmap.get(word)
            if slot is not None:
                hits += 1
                if is_write:
                    dirty[slot] = 1
                ord_[slot] = clk
                clk += 1
                if order[0] != slot:
                    order.remove(slot)
                    order.insert(0, slot)
                continue
            # Miss: the fill precedes the victim's write-back.
            misses += 1
            events.append(word << 3)
            if free:
                slot = free.pop(0)
            else:
                slot = order.pop()
                evictions += 1
                if dirty[slot]:
                    wb_events += 1
                    events.append((wrd[slot] << 3) | 1)
                del wmap[wrd[slot]]
            wrd[slot] = word
            dirty[slot] = 1 if is_write else 0
            ord_[slot] = clk
            clk += 1
            wmap[word] = slot
            order.insert(0, slot)

        # Write the mutated sets back to the arrays.
        for s, (wrd, dirty, ord_, _, _, _) in state.items():
            self._word[s] = wrd
            self._dirty[s] = dirty
            self._ord[s] = ord_
        self._clock = clk

        stats = self.stats
        stats.accesses += n
        stats.requested_bytes += 8 * n
        stats.hits += hits
        stats.misses += misses
        stats.fill_bytes += 8 * misses
        stats.writeback_bytes += 8 * wb_events
        stats.evictions += evictions

        return pack_events(n, hits, events, 8)

    # ------------------------------------------------------------------
    def flush(self) -> list[tuple[int, int]]:
        """Evict every slot; returns per-word dirty write-backs."""
        writebacks = []
        for set_idx in range(self.num_sets):
            occupied = [
                s
                for s in range(self._slots_per_set)
                if self._word[set_idx, s] != -1
            ]
            # MRU-first, matching the original list ordering
            for s in sorted(occupied, key=lambda i: -int(self._ord[set_idx, i])):
                if self._dirty[set_idx, s]:
                    self.stats.writeback_bytes += 8
                    writebacks.append((int(self._word[set_idx, s]) * 8, 8))
        self._word.fill(-1)
        self._dirty.fill(0)
        self._ord.fill(0)
        return writebacks

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Full data array (metadata is dedicated, not in-array)."""
        return self.size_bytes

    @property
    def tag_overhead_bits(self) -> int:
        """Per-slot full sub-tag plus the merge map -- substantially
        heavier than the 8 B-line cache's tag store."""
        set_bits = log2_exact(self.num_sets)
        # The merged-block lookup cannot use the slot position to shorten
        # the tag: any word of the (set-indexed) space may sit anywhere.
        sub_tag_bits = self.addr_bits - set_bits - 3
        slots = self.num_sets * self._slots_per_set
        return slots * (sub_tag_bits + MERGE_MAP_BITS)
