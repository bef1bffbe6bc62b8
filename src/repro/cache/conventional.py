"""Conventional set-associative write-back cache with 64 B lines.

The baseline on-chip memory of GraphDyns (Cache): every miss fetches a
full burst even when the program needs 8 bytes -- the bandwidth waste the
motivational experiment quantifies (Fig. 3).  To reproduce that figure's
useful/unuseful split, each line tracks which 8 B words were actually
touched (and which are dirty); the counts are settled at eviction time.

Storage layout (batched engine, PERFORMANCE.md): per-set line state
lives in contiguous NumPy arrays (block id, dirty mask, touched mask,
recency stamp) instead of per-line Python lists.  :meth:`access` walks
the arrays one address at a time.

:meth:`access_many` is a first-touch engine (docs/CACHE_ENGINES.md).  It
compresses the batch into runs of consecutive same-block accesses (run
j gets stamp ``clock0 + j``), then NumPy reduces each distinct block to
its first run, last run and OR'd word bits.  Within one call a re-touch
can miss only if its block was evicted after an earlier touch, and
evictions happen only at misses.  So a Python loop walks only each
block's first run, set by set: a resident block hits, a new block takes
a free way, else the LRU line not yet touched in the call, else a line
whose runs are over and that is provably older than every line still
awaiting a re-touch.  Each touched line gets its final masks and its
last run's stamp at once, and every re-touch is a hit with no
interpreter work.  When the victim would be a line the call touches
again, or the stamps cannot settle the choice, that set alone rewinds
and replays its runs through the exact per-run LRU loop
(:meth:`ConventionalCache._replay_runs`) with the same stamps; the
events of all sets are merged back into run order.
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
from repro.utils.sorting import run_starts
from repro.utils.units import log2_exact


class ConventionalCache(BatchedCacheEngine, BaseCache):
    """LRU set-associative cache with burst-sized lines.

    Args:
        size_bytes: total data capacity.
        ways: associativity.
        line_bytes: line (and fill/write-back) granularity.
        addr_bits: modelled physical address width (tag accounting).
    """

    # Replay state layout (see cache/batched.py).
    CANONICAL_ARRAYS = ("_block", "_dirty", "_touched")
    STATE_ARRAYS = ("_block", "_dirty", "_touched", "_ord")
    STATE_SCALARS = ("_clock",)
    EXTRA_COUNTERS = ("useful_fill_bytes", "useful_wb_bytes")

    def __init__(
        self,
        size_bytes: int,
        ways: int = 8,
        line_bytes: int = 64,
        addr_bits: int = 48,
    ) -> None:
        super().__init__()
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must be a multiple of ways * line size")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.addr_bits = addr_bits
        self.num_sets = size_bytes // (ways * line_bytes)
        self._line_shift = log2_exact(line_bytes)
        self._set_mask = self.num_sets - 1
        self._words_per_line = max(1, line_bytes // 8)
        log2_exact(self.num_sets)
        if self._words_per_line > 63:
            raise ValueError(
                "words_per_line > 63 exceeds the int64 touched-mask width"
            )
        # Array-backed line state (block -1 = invalid way).
        shape = (self.num_sets, ways)
        self._block = np.full(shape, -1, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=np.int64)
        self._touched = np.zeros(shape, dtype=np.int64)
        self._ord = np.zeros(shape, dtype=np.int64)
        self._clock = 1
        #: bytes of fetched lines actually consumed before eviction and
        #: bytes of written-back lines actually dirty (Fig. 3 accounting)
        self.useful_fill_bytes = 0
        self.useful_wb_bytes = 0

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessResult:
        stats = self.stats
        stats.accesses += 1
        stats.requested_bytes += 8
        block = addr >> self._line_shift
        set_idx = block & self._set_mask
        word_bit = 1 << ((addr >> 3) & (self._words_per_line - 1))
        block_row = self._block[set_idx].tolist()
        for w, b in enumerate(block_row):
            if b == block:
                stats.hits += 1
                if is_write:
                    self._dirty[set_idx, w] |= word_bit
                self._touched[set_idx, w] |= word_bit
                self._ord[set_idx, w] = self._clock
                self._clock += 1
                return AccessResult(hit=True)

        stats.misses += 1
        stats.fill_bytes += self.line_bytes
        writebacks = None
        free = [w for w, b in enumerate(block_row) if b == -1]
        if free:
            w = free[0]
        else:
            ord_row = self._ord[set_idx]
            w = min(range(self.ways), key=lambda i: ord_row[i])
            stats.evictions += 1
            writebacks = self._retire(set_idx, w)
        self._block[set_idx, w] = block
        self._dirty[set_idx, w] = word_bit if is_write else 0
        self._touched[set_idx, w] = word_bit
        self._ord[set_idx, w] = self._clock
        self._clock += 1
        return AccessResult(
            hit=False,
            fill_addr=block << self._line_shift,
            fill_bytes=self.line_bytes,
            writebacks=writebacks,
        )

    def _retire(self, set_idx: int, way: int) -> list[tuple[int, int]] | None:
        """Settle useful-byte accounting; return the write-back if dirty."""
        dirty = int(self._dirty[set_idx, way])
        touched = int(self._touched[set_idx, way])
        self.useful_fill_bytes += 8 * touched.bit_count()
        if not dirty:
            return None
        self.useful_wb_bytes += 8 * dirty.bit_count()
        self.stats.writeback_bytes += self.line_bytes
        return [(int(self._block[set_idx, way]) << self._line_shift, self.line_bytes)]

    # ------------------------------------------------------------------
    # Batched path (whole-tile address arrays)
    # ------------------------------------------------------------------
    def access_many(self, addrs: np.ndarray, is_write: bool) -> BatchResult:
        addrs = np.asarray(addrs, dtype=np.int64)
        n = int(addrs.size)
        if n == 0:
            return empty_batch()

        shift = self._line_shift
        ways = self.ways
        clock0 = self._clock

        blocks = addrs >> shift
        word_bits = np.left_shift(
            1, (addrs >> 3) & (self._words_per_line - 1)
        )
        # Compress runs of consecutive same-block accesses: after the
        # first access the line is resident and MRU, the rest only OR
        # word bits into the masks.  Run j carries stamp clock0 + j.
        starts = run_starts(blocks)
        run_blocks = blocks[starts]
        run_bits = np.bitwise_or.reduceat(word_bits, starts)
        n_runs = int(starts.size)

        # Per distinct block: first run, last run, and the OR of its word
        # bits over the whole call (an unstable sort suffices: all three
        # are order-free reductions).
        by_block = np.argsort(run_blocks)
        sorted_blocks = run_blocks[by_block]
        heads = run_starts(sorted_blocks)
        first = np.minimum.reduceat(by_block, heads)
        last = np.maximum.reduceat(by_block, heads)
        block = sorted_blocks[heads]
        block_bits = np.bitwise_or.reduceat(run_bits[by_block], heads)
        # First touches grouped by set, in run order within a set (the
        # sort keys are unique).
        block_set = block & self._set_mask
        walk = np.argsort(block_set * n_runs + first)
        walk_set = block_set[walk]
        set_start = run_starts(walk_set)
        sets = walk_set[set_start]
        bounds = np.append(set_start, walk.size).tolist()
        first_l = (first[walk] + clock0).tolist()
        last_l = (last[walk] + clock0).tolist()
        block_l = block[walk].tolist()
        bits_l = block_bits[walk].tolist()

        # The touched sets' rows, plus each set's eviction order over
        # the ways not yet touched in the call: free ways lowest-first,
        # then resident lines LRU-first, reversed so pop() is the victim.
        blk_rows = self._block[sets]
        untouched_rows = np.argsort(
            np.where(blk_rows == -1, -1, self._ord[sets]),
            axis=1,
            kind="stable",
        )[:, ::-1].tolist()
        blk_rows = blk_rows.tolist()
        dirty_rows = self._dirty[sets].tolist()
        touched_rows = self._touched[sets].tolist()
        ord_rows = self._ord[sets].tolist()

        events: list[int] = []
        keys: list[int] = []
        misses = evictions = wb_events = useful_fill = useful_wb = 0
        replay: list[int] = []
        way_ids = range(ways)

        # Walk the first touches only.  A re-touch can miss only if its
        # block was evicted since its first touch, and evictions happen
        # only at first-touch misses; so while no victim is a line the
        # call touches again, every re-touch hits, and a line's final
        # masks and stamp (its last run's) can be set at its first touch.
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            blk = blk_rows[i]
            dirty = dirty_rows[i]
            touched = touched_rows[i]
            ord_ = ord_rows[i]
            untouched = untouched_rows[i]
            bmap = dict(zip(blk, way_ids))  # free ways map -1: never looked up
            first_stamp = [0] * ways
            mark = (len(events), misses, evictions, wb_events,
                    useful_fill, useful_wb)
            for f, t, b, bits in zip(
                first_l[lo:hi], last_l[lo:hi], block_l[lo:hi], bits_l[lo:hi]
            ):
                w = bmap.get(b)
                if w is not None:
                    untouched.remove(w)
                    if is_write:
                        dirty[w] |= bits
                    touched[w] |= bits
                    ord_[w] = t
                    first_stamp[w] = f
                    continue
                misses += 1
                events.append(b << shift)
                keys.append(f)
                if untouched:
                    w = untouched.pop()
                else:
                    w = _settled_victim(ord_, first_stamp, f)
                    if w < 0:
                        break
                old = blk[w]
                if old != -1:
                    evictions += 1
                    useful_fill += touched[w].bit_count()
                    d = dirty[w]
                    if d:
                        useful_wb += d.bit_count()
                        wb_events += 1
                        events.append((old << shift) | 1)
                        keys.append(f)
                    del bmap[old]
                blk[w] = b
                dirty[w] = bits if is_write else 0
                touched[w] = bits
                ord_[w] = t
                first_stamp[w] = f
                bmap[b] = w
            else:
                continue
            # The victim may be re-touched later in the call: rewind the
            # set and replay its runs one by one.
            del events[mark[0]:], keys[mark[0]:]
            misses, evictions, wb_events, useful_fill, useful_wb = mark[1:]
            replay.append(i)

        if replay:
            run_sets = run_blocks & self._set_mask
            for i in replay:
                runs = np.flatnonzero(run_sets == sets[i])
                rows, counts = self._replay_runs(
                    int(sets[i]),
                    run_blocks[runs].tolist(),
                    run_bits[runs].tolist(),
                    (runs + clock0).tolist(),
                    is_write,
                    events,
                    keys,
                )
                blk_rows[i], dirty_rows[i], touched_rows[i], ord_rows[i] = rows
                misses += counts[0]
                evictions += counts[1]
                wb_events += counts[2]
                useful_fill += counts[3]
                useful_wb += counts[4]

        self._block[sets] = blk_rows
        self._dirty[sets] = dirty_rows
        self._touched[sets] = touched_rows
        self._ord[sets] = ord_rows
        self._clock = clock0 + n_runs

        line_bytes = self.line_bytes
        hits = n - misses
        stats = self.stats
        stats.accesses += n
        stats.requested_bytes += 8 * n
        stats.hits += hits
        stats.misses += misses
        stats.fill_bytes += misses * line_bytes
        stats.writeback_bytes += wb_events * line_bytes
        stats.evictions += evictions
        self.useful_fill_bytes += 8 * useful_fill
        self.useful_wb_bytes += 8 * useful_wb

        # Sets were walked one after another: restore run order (a fill
        # and its write-back share a key, and the stable sort keeps them
        # in that order).
        in_order = np.argsort(np.asarray(keys, dtype=np.int64), kind="stable")
        return pack_events(
            n, hits, np.asarray(events, dtype=np.int64)[in_order], line_bytes
        )

    def _replay_runs(
        self,
        s: int,
        run_blocks: list[int],
        run_bits: list[int],
        stamps: list[int],
        is_write: bool,
        events: list[int],
        keys: list[int],
    ) -> tuple[tuple[list[int], ...], tuple[int, ...]]:
        """Replay set ``s``'s runs through the exact per-run LRU loop.

        Run k gets stamp ``stamps[k]``, which also keys its events (appended
        to ``events``/``keys``) for the merge into run order.  Returns the
        set's new (block, dirty, touched, stamp) rows and its (misses,
        evictions, write-backs, useful fill words, useful write-back
        words).
        """
        shift = self._line_shift
        blk = self._block[s].tolist()
        dirty = self._dirty[s].tolist()
        touched = self._touched[s].tolist()
        ord_ = self._ord[s].tolist()
        # ``order`` is MRU-first, so the LRU victim is its tail.
        free, order = split_free_mru(blk, ord_)
        bmap = {blk[w]: w for w in order}
        misses = evictions = wb_events = useful_fill = useful_wb = 0
        for b, bits, t in zip(run_blocks, run_bits, stamps):
            w = bmap.get(b)
            if w is not None:
                if is_write:
                    dirty[w] |= bits
                touched[w] |= bits
                ord_[w] = t
                if order[0] != w:
                    order.remove(w)
                    order.insert(0, w)
                continue
            misses += 1
            events.append(b << shift)
            keys.append(t)
            if free:
                w = free.pop(0)
            else:
                w = order.pop()
                evictions += 1
                useful_fill += touched[w].bit_count()
                d = dirty[w]
                if d:
                    useful_wb += d.bit_count()
                    wb_events += 1
                    events.append((blk[w] << shift) | 1)
                    keys.append(t)
                del bmap[blk[w]]
            blk[w] = b
            dirty[w] = bits if is_write else 0
            touched[w] = bits
            ord_[w] = t
            bmap[b] = w
            order.insert(0, w)
        rows = (blk, dirty, touched, ord_)
        return rows, (misses, evictions, wb_events, useful_fill, useful_wb)

    # ------------------------------------------------------------------
    def flush(self) -> list[tuple[int, int]]:
        writebacks = []
        for set_idx in range(self.num_sets):
            valid = [
                w for w in range(self.ways) if self._block[set_idx, w] != -1
            ]
            # MRU-first, matching the original list ordering
            for w in sorted(valid, key=lambda i: -int(self._ord[set_idx, i])):
                wb = self._retire(set_idx, w)
                if wb:
                    writebacks.extend(wb)
        self._block.fill(-1)
        self._dirty.fill(0)
        self._touched.fill(0)
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
        # The paper's tag accounting (Sec. V-A) excludes valid/dirty state.
        return lines * tag_bits


def _settled_victim(ord_: list[int], first_stamp: list[int], now: int) -> int:
    """The LRU way of a set whose every way was touched in this call.

    A line whose last run has passed (stamp < ``now``) holds its exact
    stamp; a line still awaiting a re-touch holds its last run's stamp,
    and its true current stamp is only known to be at least its first
    touch's.  Returns the oldest passed line if it is older than every
    awaiting line's first touch, else -1 (the choice is undecided, or the
    LRU is a line the call touches again).
    """
    victim = -1
    oldest = floor = now
    for w, stamp in enumerate(ord_):
        if stamp < now:
            if stamp < oldest:
                oldest = stamp
                victim = w
        elif first_stamp[w] < floor:
            floor = first_stamp[w]
    return victim if oldest < floor else -1
