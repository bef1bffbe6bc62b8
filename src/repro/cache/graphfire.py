"""Graphfire cache (Manocha et al., ToC'23): graph-tuned policies.

Graphfire synergises three policies for graph analytics on a sectored
frame organisation:

- **Fetch**: random accesses fill only the missing 8 B sector; a stream
  detector upgrades sequential walks to full-frame fills.
- **Insertion**: a hashed 2-bit hotness table predicts reuse; frames
  for cold (predicted-dead) addresses are inserted at the LRU end
  (LIP-style) so scans and one-touch vertices leave quickly instead of
  polluting the set, while predicted-hot frames insert at MRU.
- **Replacement**: LRU over the insertion-biased order, with dead-block
  feedback -- a frame evicted without a single reuse cools its hotness
  entry, so mispredicted blocks stop being promoted.

Its per-frame reuse metadata lives alongside the data (the paper's
"store the metadata along with the cache data"), modelled by reserving
one way per set for metadata: an 8-way set keeps 7 data ways, i.e.
87.5 % effective capacity.

Storage layout (batched engine, docs/CACHE_ENGINES.md): per-set frame
state lives in contiguous NumPy arrays -- block id, present/dirty
sector masks, reuse flag, recency stamp.  LIP insertion maps onto the
stamp domain with a second, *decrementing* clock: MRU insertions and
touches take stamps from the incrementing clock, LRU-end insertions
from the decrementing one, so one signed stamp reproduces the original
insertion-biased list order (newest LIP insertion = most LRU) without
list churn.  :meth:`access` walks the arrays one address at a time;
:meth:`access_many` vectorizes block/sector/stream decomposition and
replays the batch in one tight loop over the materialised sets.  Both
paths are event-for-event identical
(``tests/test_batched_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import AccessResult, BaseCache, BatchResult
from repro.cache.batched import (
    BatchedCacheEngine,
    empty_batch,
    pack_events_sized,
    split_free_mru,
)
from repro.utils.units import log2_exact

#: hashed reuse-predictor entries x 2-bit counters
HOTNESS_ENTRIES = 1024
#: hotness threshold for MRU insertion
HOT_THRESHOLD = 2


class GraphfireCache(BatchedCacheEngine, BaseCache):
    """Sectored cache with reuse-predicted insertion and stream fills.

    Args:
        size_bytes: physical array size; one way per set holds metadata,
            so data capacity is ``size * (ways - 1) / ways``.
        ways: physical associativity (data ways = ways - 1).
        addr_bits: physical address width for tag accounting.
    """

    # Replay state layout (see cache/batched.py).  The hotness
    # table and stream cursor are global predictor state: raw-hashed
    # (set-stable) and snapshot alongside the per-set arrays.
    CANONICAL_ARRAYS = ("_block", "_present", "_dirty", "_reused")
    DIGEST_RAW = ("_hotness", "_last_word")
    STATE_ARRAYS = ("_block", "_present", "_dirty", "_reused", "_ord", "_hotness")
    STATE_SCALARS = ("_clock", "_lip", "_last_word")

    def __init__(self, size_bytes: int, ways: int = 8,
                 addr_bits: int = 48) -> None:
        super().__init__()
        if ways < 2:
            raise ValueError("graphfire needs >= 2 ways (one holds metadata)")
        if size_bytes % (ways * 64) != 0:
            raise ValueError("size must be a multiple of ways * 64")
        self.size_bytes = size_bytes
        self.ways = ways
        self.data_ways = ways - 1
        self.addr_bits = addr_bits
        self.num_sets = size_bytes // (ways * 64)
        log2_exact(self.num_sets)
        self._set_mask = self.num_sets - 1
        # Array-backed frame state (block -1 = invalid way).
        shape = (self.num_sets, self.data_ways)
        self._block = np.full(shape, -1, dtype=np.int64)
        self._present = np.zeros(shape, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=np.int64)
        self._reused = np.zeros(shape, dtype=np.int64)
        #: signed recency: MRU stamps > 0 (incrementing clock), LIP
        #: stamps < 0 (decrementing clock), invalid frames 0.
        self._ord = np.zeros(shape, dtype=np.int64)
        self._clock = 1
        self._lip = 0
        self._hotness = np.zeros(HOTNESS_ENTRIES, dtype=np.int64)
        self._last_word = -2

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessResult:
        """One 8 B access with stream-aware fill and LIP insertion."""
        stats = self.stats
        stats.accesses += 1
        stats.requested_bytes += 8
        word = addr >> 3
        block = word >> 3
        sector_bit = 1 << (word & 7)
        set_idx = block & self._set_mask
        streaming = word == self._last_word + 1
        self._last_word = word
        slot = self._hotness_slot(block)
        hotness = self._hotness

        block_row = self._block[set_idx].tolist()
        for w, b in enumerate(block_row):
            if b == block:
                self._reused[set_idx, w] = 1
                hotness[slot] = min(3, int(hotness[slot]) + 1)
                if int(self._present[set_idx, w]) & sector_bit:
                    stats.hits += 1
                    if is_write:
                        self._dirty[set_idx, w] |= sector_bit
                    self._ord[set_idx, w] = self._clock
                    self._clock += 1
                    return AccessResult(hit=True)
                # Frame present, sector missing: sector fill, no eviction.
                stats.misses += 1
                fill_mask = self._fill_mask(
                    sector_bit, streaming, int(self._present[set_idx, w])
                )
                self._present[set_idx, w] |= fill_mask
                if is_write:
                    self._dirty[set_idx, w] |= sector_bit
                self._ord[set_idx, w] = self._clock
                self._clock += 1
                nbytes = 8 * fill_mask.bit_count()
                stats.fill_bytes += nbytes
                return AccessResult(
                    hit=False,
                    fill_addr=addr & ~0x7,
                    fill_bytes=nbytes,
                    writebacks=None,
                )

        stats.misses += 1
        writebacks = None
        free = [w for w, b in enumerate(block_row) if b == -1]
        if not free:
            ord_row = self._ord[set_idx]
            w = min(range(self.data_ways), key=lambda i: ord_row[i])
            stats.evictions += 1
            if not self._reused[set_idx, w]:
                # Dead-block feedback: evicted untouched -> cool it.
                vslot = self._hotness_slot(int(block_row[w]))
                hotness[vslot] = max(0, int(hotness[vslot]) - 1)
            writebacks = self._retire(set_idx, w)
        else:
            w = free[0]
        fill_mask = self._fill_mask(sector_bit, streaming, 0)
        self._block[set_idx, w] = block
        self._present[set_idx, w] = fill_mask
        self._dirty[set_idx, w] = sector_bit if is_write else 0
        self._reused[set_idx, w] = 0
        if hotness[slot] >= HOT_THRESHOLD:
            self._ord[set_idx, w] = self._clock
            self._clock += 1
        else:
            # LIP: cold frames enter at the LRU end of the stamp order.
            self._lip -= 1
            self._ord[set_idx, w] = self._lip
        hotness[slot] = min(3, int(hotness[slot]) + 1)
        nbytes = 8 * fill_mask.bit_count()
        stats.fill_bytes += nbytes
        return AccessResult(
            hit=False,
            fill_addr=addr & ~0x7,
            fill_bytes=nbytes,
            writebacks=writebacks,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _fill_mask(sector_bit: int, streaming: bool, present: int) -> int:
        if streaming:
            return 0xFF & ~present
        return sector_bit

    def _hotness_slot(self, block: int) -> int:
        return (block ^ (block >> 10)) % HOTNESS_ENTRIES

    def _retire(self, set_idx: int, way: int) -> list[tuple[int, int]] | None:
        block = int(self._block[set_idx, way])
        dirty_mask = int(self._dirty[set_idx, way])
        if not dirty_mask:
            return None
        writebacks = []
        for offset in range(8):
            if dirty_mask & (1 << offset):
                self.stats.writeback_bytes += 8
                writebacks.append(((block << 6) + offset * 8, 8))
        return writebacks

    # ------------------------------------------------------------------
    # Batched path (whole-tile address arrays)
    # ------------------------------------------------------------------
    def access_many(self, addrs: np.ndarray, is_write: bool) -> BatchResult:
        addrs = np.asarray(addrs, dtype=np.int64)
        n = int(addrs.size)
        if n == 0:
            return empty_batch()

        words = addrs >> 3
        blocks = words >> 3
        bit_a = np.left_shift(1, words & 7)
        # Stream detection is a global property of the access order:
        # one vectorized diff covers the whole batch, seeded by the
        # cross-batch cursor.
        streaming = np.empty(n, dtype=bool)
        streaming[0] = int(words[0]) == self._last_word + 1
        np.equal(words[1:] - words[:-1], 1, out=streaming[1:])
        hot_slot_a = (blocks ^ (blocks >> 10)) % HOTNESS_ENTRIES

        word_l = words.tolist()
        blk_l = blocks.tolist()
        set_l = (blocks & self._set_mask).tolist()
        bit_l = bit_a.tolist()
        fill_l = (addrs & ~0x7).tolist()
        stream_l = streaming.tolist()
        hslot_l = hot_slot_a.tolist()

        # Materialise the touched sets; ``order`` is MRU-first (signed
        # stamps: LIP entries trail), so the LRU victim is its tail.
        state: dict[int, tuple] = {}
        for s in set(set_l):
            blk = self._block[s].tolist()
            present = self._present[s].tolist()
            dirty = self._dirty[s].tolist()
            reused = self._reused[s].tolist()
            ord_ = self._ord[s].tolist()
            free, order = split_free_mru(blk, ord_)
            bmap = {blk[w]: w for w in order}
            state[s] = (blk, present, dirty, reused, ord_, bmap, free, order)

        hot = self._hotness.tolist()
        events: list[int] = []
        sizes: list[int] = []
        clk = self._clock
        lip = self._lip
        hits = fill_bytes = evictions = wb_events = 0
        cur_s = -1
        blk = present = dirty = reused = ord_ = bmap = free = order = None

        for word, b, s, bit, fill, stream, hslot in zip(
            word_l, blk_l, set_l, bit_l, fill_l, stream_l, hslot_l
        ):
            if s != cur_s:
                blk, present, dirty, reused, ord_, bmap, free, order = state[s]
                cur_s = s
            w = bmap.get(b)
            if w is not None:
                reused[w] = 1
                h = hot[hslot]
                if h < 3:
                    hot[hslot] = h + 1
                if present[w] & bit:
                    hits += 1
                    if is_write:
                        dirty[w] |= bit
                else:
                    # Frame present, sector missing: sector fill only.
                    fill_mask = (0xFF & ~present[w]) if stream else bit
                    present[w] |= fill_mask
                    if is_write:
                        dirty[w] |= bit
                    nbytes = 8 * fill_mask.bit_count()
                    fill_bytes += nbytes
                    events.append(fill)
                    sizes.append(nbytes)
                ord_[w] = clk
                clk += 1
                if order[0] != w:
                    order.remove(w)
                    order.insert(0, w)
                continue
            # Frame miss: the fill precedes the victim's write-backs.
            fill_mask = 0xFF if stream else bit
            nbytes = 8 * fill_mask.bit_count()
            fill_bytes += nbytes
            events.append(fill)
            sizes.append(nbytes)
            if free:
                w = free.pop(0)
            else:
                w = order.pop()
                evictions += 1
                if not reused[w]:
                    vb = blk[w]
                    vslot = (vb ^ (vb >> 10)) % HOTNESS_ENTRIES
                    if hot[vslot] > 0:
                        hot[vslot] -= 1
                d = dirty[w]
                if d:
                    base = blk[w] << 6
                    o = 0
                    while d:
                        if d & 1:
                            events.append((base + o * 8) | 1)
                            sizes.append(8)
                            wb_events += 1
                        d >>= 1
                        o += 1
                del bmap[blk[w]]
            blk[w] = b
            present[w] = fill_mask
            dirty[w] = bit if is_write else 0
            reused[w] = 0
            if hot[hslot] >= HOT_THRESHOLD:
                ord_[w] = clk
                clk += 1
                order.insert(0, w)
            else:
                lip -= 1
                ord_[w] = lip
                order.append(w)
            h = hot[hslot]
            if h < 3:
                hot[hslot] = h + 1
            bmap[b] = w

        # Write the mutated sets back to the arrays.
        for s, (blk, present, dirty, reused, ord_, _, _, _) in state.items():
            self._block[s] = blk
            self._present[s] = present
            self._dirty[s] = dirty
            self._reused[s] = reused
            self._ord[s] = ord_
        self._hotness[:] = hot
        self._clock = clk
        self._lip = lip
        self._last_word = int(words[-1])

        misses = n - hits
        stats = self.stats
        stats.accesses += n
        stats.requested_bytes += 8 * n
        stats.hits += hits
        stats.misses += misses
        stats.fill_bytes += fill_bytes
        stats.writeback_bytes += 8 * wb_events
        stats.evictions += evictions

        return pack_events_sized(n, hits, events, sizes)

    # ------------------------------------------------------------------
    def _mru_order(self, set_idx: int) -> list[int]:
        """Way indices in the original insertion-biased list order."""
        valid = [
            w for w in range(self.data_ways) if self._block[set_idx, w] != -1
        ]
        return sorted(valid, key=lambda w: -int(self._ord[set_idx, w]))

    @property
    def _sets(self) -> list[list[list]]:
        """Read-only frame views per set, MRU-first (back-compat)."""
        return [
            [
                [
                    int(self._block[s, w]),
                    int(self._present[s, w]),
                    int(self._dirty[s, w]),
                    bool(self._reused[s, w]),
                ]
                for w in self._mru_order(s)
            ]
            for s in range(self.num_sets)
        ]

    def flush(self) -> list[tuple[int, int]]:
        """Evict every frame; returns per-sector dirty write-backs."""
        writebacks = []
        for set_idx in range(self.num_sets):
            for w in self._mru_order(set_idx):
                retired = self._retire(set_idx, w)
                if retired:
                    writebacks.extend(retired)
        self._block.fill(-1)
        self._present.fill(0)
        self._dirty.fill(0)
        self._reused.fill(0)
        self._ord.fill(0)
        return writebacks

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Data capacity after the reserved metadata way."""
        return self.size_bytes * self.data_ways // self.ways

    @property
    def tag_overhead_bits(self) -> int:
        """Frame tags plus the dedicated hotness table (the in-array
        reuse metadata is charged as the reserved way instead)."""
        set_bits = log2_exact(self.num_sets)
        tag_bits = self.addr_bits - set_bits - 6
        frames = self.num_sets * self.data_ways
        return frames * (tag_bits + 8) + HOTNESS_ENTRIES * 2
