"""Amoeba-cache (Kumar et al., MICRO'12): variable-granularity blocks.

Amoeba stores blocks of 1-8 words directly in the data array together
with their tags, so no capacity is wasted on never-used words -- but
every resident block spends one extra word on its in-array tag, and a
spatial-granularity predictor decides how much to fetch on a miss.
Under-fetching costs extra misses; over-fetching wastes bandwidth and
capacity: exactly the trade the paper's Fig. 11 discussion attributes
to the design ("they store the metadata along with the cache data,
resulting in lower effective cache capacity").

The set is a word budget (``ways x 64 B``).  Blocks are
``(start_word, n_words, dirty_mask, touched_mask)`` kept in MRU order;
installing a block evicts LRU blocks until its footprint
(``n_words + 1`` for the tag) fits.  The predictor keeps a per-region
granularity hint that doubles when evicted blocks were fully used and
halves when they were mostly untouched.

Storage layout (batched engine, docs/CACHE_ENGINES.md): block state
lives in contiguous NumPy arrays of fixed per-set capacity (a block
occupies at least two budget words -- one data word plus its in-array
tag -- so ``budget // 2`` slots suffice), with ``start == -1`` marking
a free slot and a recency stamp ordering the rest.  :meth:`access`
walks the arrays one address at a time; :meth:`access_many` vectorizes
the word/set decomposition and replays the batch in one tight loop
over the materialised sets, using a resident-word -> slot dict so both
the hit check and the predictor's fetch-window trimming are O(1) per
word instead of a scan over the set's blocks.  Both paths are
event-for-event identical (``tests/test_batched_equivalence.py``).
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.cache.base import AccessResult, BaseCache, BatchResult
from repro.cache.batched import (
    BatchedCacheEngine,
    empty_batch,
    pack_events_sized,
    split_free_mru,
)
from repro.utils.units import log2_exact

#: largest block, in 8-byte words (one conventional line)
MAX_BLOCK_WORDS = 8
#: predictor regions: one hint per 512 B of address space
REGION_SHIFT = 6  # words -> 64-word = 512 B regions
#: predictor table entries (direct-mapped, hashed)
PREDICTOR_ENTRIES = 1024
DEFAULT_GRANULARITY = 2


class AmoebaCache(BatchedCacheEngine, BaseCache):
    """Variable-granularity cache with in-array tags.

    Args:
        size_bytes: data-array size (shared by blocks and their tags).
        ways: nominal associativity; sizes the per-set word budget.
        addr_bits: physical address width for metadata accounting.
    """

    # Replay state layout (see cache/batched.py).  The predictor
    # table and per-set occupancy are indexed by stable ids (region
    # hash, set number), so they hash raw.
    CANONICAL_ARRAYS = ("_start", "_nw", "_dirty", "_touched")
    DIGEST_RAW = ("_hints", "_used_words")
    STATE_ARRAYS = ("_start", "_nw", "_dirty", "_touched", "_ord",
                    "_hints", "_used_words")
    STATE_SCALARS = ("_clock",)
    EXTRA_COUNTERS = ("useful_fill_bytes", "useful_wb_bytes")

    def __init__(self, size_bytes: int, ways: int = 8,
                 addr_bits: int = 48) -> None:
        super().__init__()
        if ways < 2:
            # A max-granularity block's footprint (MAX_BLOCK_WORDS + 1
            # for the in-array tag) must fit the per-set word budget
            # (ways * 8), or eviction can never make room for it.
            raise ValueError("amoeba needs >= 2 ways")
        if size_bytes % (ways * 64) != 0:
            raise ValueError("size must be a multiple of ways * 64")
        self.size_bytes = size_bytes
        self.ways = ways
        self.addr_bits = addr_bits
        self.num_sets = size_bytes // (ways * 64)
        log2_exact(self.num_sets)
        self._set_mask = self.num_sets - 1
        self._budget_words = ways * 8
        #: block slots per set: every block costs >= 2 budget words
        self._max_blocks = self._budget_words // 2
        # Array-backed block state (start -1 = free slot).
        shape = (self.num_sets, self._max_blocks)
        self._start = np.full(shape, -1, dtype=np.int64)
        self._nw = np.zeros(shape, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=np.int64)
        self._touched = np.zeros(shape, dtype=np.int64)
        self._ord = np.zeros(shape, dtype=np.int64)
        self._clock = 1
        self._used_words = np.zeros(self.num_sets, dtype=np.int64)
        self._hints = np.full(PREDICTOR_ENTRIES, DEFAULT_GRANULARITY,
                              dtype=np.int64)
        self.useful_fill_bytes = 0
        self.useful_wb_bytes = 0

    # ------------------------------------------------------------------
    def _set_of(self, word: int) -> int:
        return (word >> 3) & self._set_mask

    def _hint_slot(self, word: int) -> int:
        return (word >> REGION_SHIFT) % PREDICTOR_ENTRIES

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessResult:
        """One 8 B access; misses install a predicted-size block."""
        stats = self.stats
        stats.accesses += 1
        stats.requested_bytes += 8
        word = addr >> 3
        set_idx = self._set_of(word)
        start_row = self._start[set_idx].tolist()
        nw_row = self._nw[set_idx].tolist()
        for i, (start, n_words) in enumerate(zip(start_row, nw_row)):
            if start >= 0 and start <= word < start + n_words:
                stats.hits += 1
                bit = 1 << (word - start)
                if is_write:
                    self._dirty[set_idx, i] |= bit
                self._touched[set_idx, i] |= bit
                self._ord[set_idx, i] = self._clock
                self._clock += 1
                return AccessResult(hit=True)

        stats.misses += 1
        lo, hi = self._fetch_range(word, start_row, nw_row)
        n_words = hi - lo
        footprint = n_words + 1  # the in-array tag word
        writebacks: list[tuple[int, int]] = []
        used = int(self._used_words[set_idx])
        while used + footprint > self._budget_words:
            victim = self._lru_slot(set_idx)
            used -= int(self._nw[set_idx, victim]) + 1
            stats.evictions += 1
            self._retire(set_idx, victim, writebacks)
            self._start[set_idx, victim] = -1
            self._nw[set_idx, victim] = 0
            self._dirty[set_idx, victim] = 0
            self._touched[set_idx, victim] = 0
            self._ord[set_idx, victim] = 0
        slot = int(np.flatnonzero(self._start[set_idx] == -1)[0])
        bit = 1 << (word - lo)
        self._start[set_idx, slot] = lo
        self._nw[set_idx, slot] = n_words
        self._dirty[set_idx, slot] = bit if is_write else 0
        self._touched[set_idx, slot] = bit
        self._ord[set_idx, slot] = self._clock
        self._clock += 1
        self._used_words[set_idx] = used + footprint
        stats.fill_bytes += n_words * 8
        return AccessResult(
            hit=False,
            fill_addr=lo * 8,
            fill_bytes=n_words * 8,
            writebacks=writebacks or None,
        )

    def _lru_slot(self, set_idx: int) -> int:
        """Occupied slot with the lowest recency stamp."""
        ord_row = self._ord[set_idx]
        occupied = np.flatnonzero(self._start[set_idx] >= 0)
        return int(occupied[np.argmin(ord_row[occupied])])

    # ------------------------------------------------------------------
    def _fetch_range(
        self, word: int, start_row: list[int], nw_row: list[int]
    ) -> tuple[int, int]:
        """Predicted fetch window around ``word``, trimmed so it never
        overlaps a resident block."""
        gran = int(self._hints[self._hint_slot(word)])
        lo = word - (word % gran)
        hi = lo + gran
        for start, n_words in zip(start_row, nw_row):
            if start < 0:
                continue
            end = start + n_words
            if end <= word:
                lo = max(lo, end)
            elif start > word:
                hi = min(hi, start)
        return lo, hi

    def _retire(
        self, set_idx: int, slot: int, writebacks: list[tuple[int, int]]
    ) -> None:
        start = int(self._start[set_idx, slot])
        n_words = int(self._nw[set_idx, slot])
        dirty_mask = int(self._dirty[set_idx, slot])
        touched_mask = int(self._touched[set_idx, slot])
        used = touched_mask.bit_count()
        self.useful_fill_bytes += 8 * used
        # Train the granularity predictor on observed utilisation.  A
        # fully-used single word proves nothing about spatial locality,
        # so growth needs a fully-used multi-word block (else the hint
        # would oscillate 1 <-> 2 on sparse regions).
        hslot = self._hint_slot(start)
        hint = int(self._hints[hslot])
        if used == n_words and MAX_BLOCK_WORDS > n_words >= 2:
            self._hints[hslot] = min(MAX_BLOCK_WORDS, hint * 2)
        elif used * 2 <= n_words and n_words > 1:
            self._hints[hslot] = max(1, hint // 2)
        if not dirty_mask:
            return
        # Coalesce contiguous dirty words into write-back runs.
        run_start = None
        for offset in range(n_words + 1):
            dirty = offset < n_words and dirty_mask & (1 << offset)
            if dirty and run_start is None:
                run_start = offset
            elif not dirty and run_start is not None:
                nbytes = (offset - run_start) * 8
                writebacks.append(((start + run_start) * 8, nbytes))
                self.stats.writeback_bytes += nbytes
                self.useful_wb_bytes += nbytes
                run_start = None

    # ------------------------------------------------------------------
    # Batched path (whole-tile address arrays)
    # ------------------------------------------------------------------
    def access_many(self, addrs: np.ndarray, is_write: bool) -> BatchResult:
        addrs = np.asarray(addrs, dtype=np.int64)
        n = int(addrs.size)
        if n == 0:
            return empty_batch()

        budget = self._budget_words

        words = addrs >> 3
        word_l = words.tolist()
        set_l = ((words >> 3) & self._set_mask).tolist()
        hslot_l = ((words >> REGION_SHIFT) % PREDICTOR_ENTRIES).tolist()

        # Materialise the touched sets.  ``wmap`` maps every resident
        # word to its block slot: the hit check and the fetch-window
        # trimming walk words, not blocks.
        state: dict[int, tuple] = {}
        for s in set(set_l):
            start = self._start[s].tolist()
            nw = self._nw[s].tolist()
            dirty = self._dirty[s].tolist()
            touched = self._touched[s].tolist()
            ord_ = self._ord[s].tolist()
            free, order = split_free_mru(start, ord_)
            wmap: dict[int, int] = {}
            for i in order:
                for w in range(start[i], start[i] + nw[i]):
                    wmap[w] = i
            state[s] = (
                start, nw, dirty, touched, ord_,
                wmap, free, order, [int(self._used_words[s])],
            )

        hints = self._hints.tolist()
        events: list[int] = []
        sizes: list[int] = []
        clk = self._clock
        hits = fill_bytes = evictions = 0
        wb_bytes = useful_fill = useful_wb = 0
        cur_s = -1
        start = nw = dirty = touched = ord_ = wmap = free = order = used = None

        for word, s, hslot in zip(word_l, set_l, hslot_l):
            if s != cur_s:
                (start, nw, dirty, touched, ord_,
                 wmap, free, order, used) = state[s]
                cur_s = s
            i = wmap.get(word)
            if i is not None:
                hits += 1
                bit = 1 << (word - start[i])
                if is_write:
                    dirty[i] |= bit
                touched[i] |= bit
                ord_[i] = clk
                clk += 1
                if order[0] != i:
                    order.remove(i)
                    order.insert(0, i)
                continue

            # Miss: predicted fetch window, trimmed at the nearest
            # resident word on each side (equivalent to trimming at
            # block boundaries: the first resident word below ``word``
            # is necessarily the last word of its block, the first one
            # above necessarily the first word of its block).
            gran = hints[hslot]
            lo = word - (word % gran)
            hi = lo + gran
            for w in range(word - 1, lo - 1, -1):
                if w in wmap:
                    lo = w + 1
                    break
            for w in range(word + 1, hi):
                if w in wmap:
                    hi = w
                    break
            n_words = hi - lo
            footprint = n_words + 1  # the in-array tag word
            nbytes = n_words * 8
            fill_bytes += nbytes
            events.append(lo * 8)
            sizes.append(nbytes)

            while used[0] + footprint > budget:
                v = order.pop()
                v_start = start[v]
                v_nw = nw[v]
                used[0] -= v_nw + 1
                evictions += 1
                # --- retire: predictor training + useful-byte settling
                t_used = touched[v].bit_count()
                useful_fill += t_used
                v_hslot = (v_start >> REGION_SHIFT) % PREDICTOR_ENTRIES
                hint = hints[v_hslot]
                if t_used == v_nw and MAX_BLOCK_WORDS > v_nw >= 2:
                    hints[v_hslot] = min(MAX_BLOCK_WORDS, hint * 2)
                elif t_used * 2 <= v_nw and v_nw > 1:
                    hints[v_hslot] = max(1, hint // 2)
                d = dirty[v]
                if d:
                    # Coalesce contiguous dirty words into runs.
                    run = -1
                    for off in range(v_nw + 1):
                        if off < v_nw and d & (1 << off):
                            if run < 0:
                                run = off
                        elif run >= 0:
                            rbytes = (off - run) * 8
                            events.append(((v_start + run) * 8) | 1)
                            sizes.append(rbytes)
                            wb_bytes += rbytes
                            useful_wb += rbytes
                            run = -1
                for w in range(v_start, v_start + v_nw):
                    del wmap[w]
                start[v] = -1
                nw[v] = 0
                dirty[v] = 0
                touched[v] = 0
                ord_[v] = 0
                insort(free, v)  # keep ascending: pop(0) = lowest index

            slot = free.pop(0)
            bit = 1 << (word - lo)
            start[slot] = lo
            nw[slot] = n_words
            dirty[slot] = bit if is_write else 0
            touched[slot] = bit
            ord_[slot] = clk
            clk += 1
            used[0] += footprint
            for w in range(lo, hi):
                wmap[w] = slot
            order.insert(0, slot)

        # Write the mutated sets back to the arrays.
        for s, (start, nw, dirty, touched, ord_, _, _, _, used) in state.items():
            self._start[s] = start
            self._nw[s] = nw
            self._dirty[s] = dirty
            self._touched[s] = touched
            self._ord[s] = ord_
            self._used_words[s] = used[0]
        self._hints[:] = hints
        self._clock = clk

        misses = n - hits
        stats = self.stats
        stats.accesses += n
        stats.requested_bytes += 8 * n
        stats.hits += hits
        stats.misses += misses
        stats.fill_bytes += fill_bytes
        stats.writeback_bytes += wb_bytes
        stats.evictions += evictions
        self.useful_fill_bytes += 8 * useful_fill
        self.useful_wb_bytes += useful_wb

        return pack_events_sized(n, hits, events, sizes)

    # ------------------------------------------------------------------
    def flush(self) -> list[tuple[int, int]]:
        """Evict every block; returns coalesced dirty write-backs."""
        writebacks: list[tuple[int, int]] = []
        for set_idx in range(self.num_sets):
            occupied = np.flatnonzero(self._start[set_idx] >= 0)
            # MRU-first, matching the original list ordering
            for slot in sorted(
                occupied.tolist(),
                key=lambda i: -int(self._ord[set_idx, i]),
            ):
                self._retire(set_idx, slot, writebacks)
            self._used_words[set_idx] = 0
        self._start.fill(-1)
        self._nw.fill(0)
        self._dirty.fill(0)
        self._touched.fill(0)
        self._ord.fill(0)
        return writebacks

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Expected data capacity: one tag word per average-granularity
        block (~4 words) leaves ~4/5 of the array for data."""
        return self.size_bytes * 4 // 5

    @property
    def tag_overhead_bits(self) -> int:
        """Dedicated (out-of-array) metadata only: the predictor table
        and per-set fill bookkeeping; tags live in the data array."""
        predictor_bits = PREDICTOR_ENTRIES * 4
        per_set_bits = self.num_sets * 16
        return predictor_bits + per_set_bits

    @property
    def in_array_tag_bits(self) -> int:
        """Worst-case in-array tag spend (one word per resident block)."""
        return self._budget_words // 2 * self.num_sets * 64
