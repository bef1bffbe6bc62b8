"""Piccolo-cache: fine-grained storage with split (tag, fg-tag) lookup.

Sec. V / Fig. 5b.  A line covers a contiguous *window* of
``sectors_per_line * 2**fg_tag_bits * 8`` bytes (32 KB in the paper's
4 MB configuration).  The address splits, LSB to MSB, into

    [ byte(3) | fg-offset(log2 sectors) | fg-tag | set | tag ]

A line holds one 8 B sector per fg-offset; the sector's fg-tag records
*which* 128 B-strided word of the window currently occupies the slot.
Splitting the conventional 29-bit tag into a per-line 21-bit tag plus
per-sector 8-bit fg-tags cuts tag storage from 45.31 % of data capacity
to 2.05 % + 12.50 % while behaving almost like an 8 B-line cache.

Replacement (Sec. V-B / Fig. 6):

- The same tag may occupy several ways of a set; lookup searches ways
  sequentially (cheap, throughput-oriented).
- A fg-tag miss with the tag already at its way-partition quota replaces
  just the victim *sector* in the LRU line of that tag.
- Otherwise a whole line of another tag is evicted (equal way
  partitioning across the tags of the current tile; unequal partitioning
  is the paper's future work, available here as the ``"utility"`` mode).
- Victim ordering is LRU by default, SRRIP when ``policy="rrip"``
  (Fig. 11's Piccolo (RRIP) bars).

Storage layout (this module's batched engine, PERFORMANCE.md):

The per-set line metadata lives in contiguous NumPy arrays -- tags,
per-sector fg-tags, dirty masks, RRPV and recency stamps -- instead of
``_Line`` objects in Python lists.  Recency is a monotonically
increasing stamp per line: under LRU the stamp advances on every touch,
under SRRIP only on insertion, which reproduces the original MRU-first
list ordering (including SRRIP's first-max tie-break on the youngest
insertion) without any list churn.  :meth:`access` operates on the
arrays one address at a time and is the per-access oracle.

:meth:`access_many` keys the touched sets by *sector address*, the
word's full (tag, set, fg-tag, offset), as the hardware's split lookup
does.  Per call it builds, in NumPy, a dict from each resident sector
to ``2 * line + dirty``, each line's sector addresses by fg-offset, and
each (tag, set) group's lines LRU-first in a ``deque`` (plus the groups
at their way quota).  A hit is one dict probe; a sector replacement at
quota takes the group's LRU line, pops the displaced sector (its flag
decides the write-back, its key is the write-back address) and inserts
the new one.  After the loop the fg-tags and dirty masks are read back
out of the dict, and the touched sets' arrays are written once.  Both
paths are behaviourally identical (enforced by
tests/test_batched_equivalence.py).
"""

from __future__ import annotations

from collections import deque
from itertools import count

import numpy as np

from repro.cache.base import AccessResult, BaseCache, BatchResult
from repro.cache.batched import BatchedCacheEngine, empty_batch, pack_events
from repro.utils.units import log2_exact

#: SRRIP constants (2-bit re-reference prediction values).
RRIP_BITS = 2
RRIP_MAX = (1 << RRIP_BITS) - 1
RRIP_INSERT = RRIP_MAX - 1


class _LineView:
    """Read-only snapshot of one line (introspection/back-compat)."""

    __slots__ = ("tag", "fg", "dirty", "rrpv")

    def __init__(self, tag: int, fg: list[int], dirty: int, rrpv: int) -> None:
        self.tag = tag
        self.fg = fg
        self.dirty = dirty
        self.rrpv = rrpv


class PiccoloCache(BatchedCacheEngine, BaseCache):
    """The split-tag fine-grained cache of Sec. V.

    Args:
        size_bytes: data capacity.
        ways: associativity (paper: 8).
        line_bytes: line size (paper: 128 = 16 sectors x 8 B).
        sector_bytes: fine-grained granularity (paper: 8).
        fg_tag_bits: per-sector tag width (paper: 8).  Scaled-down
            experiments use 4 so the window/tile ratios match (docs/EXPERIMENTS.md).
        policy: ``"lru"`` or ``"rrip"``.
        addr_bits: modelled address width (tag accounting only).
    """

    # Replay state layout (see cache/batched.py).  ``way_quota``
    # joins the digest raw: the same line state behaves differently
    # under a different quota.
    CANONICAL_ARRAYS = ("_tag", "_fgt", "_dirty", "_rrpv")
    DIGEST_RAW = ("way_quota",)
    STATE_ARRAYS = ("_tag", "_fgt", "_dirty", "_rrpv", "_ord", "_ins")
    STATE_SCALARS = ("_clock",)
    EXTRA_COUNTERS = ("sector_replacements", "line_evictions")

    def __init__(
        self,
        size_bytes: int,
        ways: int = 8,
        line_bytes: int = 128,
        sector_bytes: int = 8,
        fg_tag_bits: int = 8,
        policy: str = "lru",
        addr_bits: int = 48,
    ) -> None:
        super().__init__()
        if policy not in ("lru", "rrip"):
            raise ValueError("policy must be 'lru' or 'rrip'")
        if line_bytes % sector_bytes != 0:
            raise ValueError("line must be a multiple of the sector size")
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must be a multiple of ways * line size")
        if not 1 <= fg_tag_bits <= 16:
            raise ValueError("fg_tag_bits must be in [1, 16]")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.sectors_per_line = line_bytes // sector_bytes
        self.fg_tag_bits = fg_tag_bits
        self.policy = policy
        self.addr_bits = addr_bits
        self.num_sets = size_bytes // (ways * line_bytes)
        log2_exact(self.num_sets)
        if line_bytes // sector_bytes > 63:
            raise ValueError(
                "sectors_per_line > 63 exceeds the int64 dirty-mask width"
            )

        self._sector_shift = log2_exact(sector_bytes)
        self._fg_off_bits = log2_exact(self.sectors_per_line)
        self._fg_shift = self._sector_shift + self._fg_off_bits
        self._set_shift = self._fg_shift + fg_tag_bits
        self._set_bits = log2_exact(self.num_sets)
        self._tag_shift = self._set_shift + self._set_bits

        # Array-backed line metadata (see module docstring).
        shape = (self.num_sets, ways)
        self._tag = np.full(shape, -1, dtype=np.int64)
        self._fgt = np.full(shape + (self.sectors_per_line,), -1, dtype=np.int32)
        self._dirty = np.zeros(shape, dtype=np.int64)
        self._rrpv = np.full(shape, RRIP_INSERT, dtype=np.int16)
        #: recency stamp: touch-order under LRU, insert-order under SRRIP
        self._ord = np.zeros(shape, dtype=np.int64)
        #: insertion stamp (SRRIP's tie-break domain)
        self._ins = np.zeros(shape, dtype=np.int64)
        self._clock = 1

        #: ways each tag may occupy (equal way partitioning, Sec. V-B);
        #: the tiling layer calls :meth:`set_way_quota` per tile.
        self.way_quota = ways
        #: extra counters beyond CacheStats
        self.sector_replacements = 0
        self.line_evictions = 0

    # ------------------------------------------------------------------
    @property
    def window_bytes(self) -> int:
        """Contiguous address range one (tag, set) pair covers."""
        return 1 << self._set_shift

    def set_way_quota(self, tags_per_set: int) -> None:
        """Equal way partitioning for a tile spanning ``tags_per_set``
        distinct tags per set (Sec. V-B)."""
        if tags_per_set < 1:
            raise ValueError("tags_per_set must be >= 1")
        self.way_quota = max(1, self.ways // tags_per_set)

    # ------------------------------------------------------------------
    def _split(self, addr: int) -> tuple[int, int, int, int]:
        off = (addr >> self._sector_shift) & (self.sectors_per_line - 1)
        fg = (addr >> self._fg_shift) & ((1 << self.fg_tag_bits) - 1)
        set_idx = (addr >> self._set_shift) & (self.num_sets - 1)
        tag = addr >> self._tag_shift
        return tag, set_idx, fg, off

    def _sector_addr(self, tag: int, set_idx: int, fg: int, off: int) -> int:
        return (
            (tag << self._tag_shift)
            | (set_idx << self._set_shift)
            | (fg << self._fg_shift)
            | (off << self._sector_shift)
        )

    # ------------------------------------------------------------------
    # Scalar path (one address at a time, directly on the arrays)
    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessResult:
        stats = self.stats
        stats.accesses += 1
        stats.requested_bytes += self.sector_bytes
        tag, set_idx, fg, off = self._split(addr)
        bit = 1 << off
        tag_row = self._tag[set_idx].tolist()
        fg_rows = self._fgt[set_idx]

        same_tag: list[int] = []
        for w, t in enumerate(tag_row):
            if t == tag:
                if fg_rows[w, off] == fg:
                    stats.hits += 1
                    if is_write:
                        self._dirty[set_idx, w] |= bit
                    self._touch(set_idx, w)
                    return AccessResult(hit=True)
                same_tag.append(w)

        stats.misses += 1
        stats.fill_bytes += self.sector_bytes
        writebacks: list[tuple[int, int]] | None = None

        # Sector replacement only when the tag already holds its allocated
        # ways (Sec. V-B); below quota the tag claims a whole new line.
        if same_tag and len(same_tag) >= self.way_quota:
            v = self._victim_among(set_idx, same_tag)
            old_fg = int(fg_rows[v, off])
            if old_fg >= 0 and int(self._dirty[set_idx, v]) & bit:
                wb_addr = self._sector_addr(tag, set_idx, old_fg, off)
                writebacks = [(wb_addr, self.sector_bytes)]
                stats.writeback_bytes += self.sector_bytes
            fg_rows[v, off] = fg
            if is_write:
                self._dirty[set_idx, v] |= bit
            else:
                self._dirty[set_idx, v] &= ~bit
            self.sector_replacements += 1
            self._touch(set_idx, v)
        else:
            # Whole-line allocation; evict another tag's LRU line if full.
            free = [w for w, t in enumerate(tag_row) if t == -1]
            if free:
                w = free[0]
            else:
                candidates = [
                    w for w in range(self.ways) if w not in same_tag
                ] or list(range(self.ways))
                w = self._victim_among(set_idx, candidates)
                stats.evictions += 1
                self.line_evictions += 1
                writebacks = self._dirty_sector_writebacks(set_idx, w)
            self._tag[set_idx, w] = tag
            fg_rows[w] = -1
            fg_rows[w, off] = fg
            self._dirty[set_idx, w] = bit if is_write else 0
            self._rrpv[set_idx, w] = RRIP_INSERT
            self._ord[set_idx, w] = self._clock
            self._ins[set_idx, w] = self._clock
            self._clock += 1

        return AccessResult(
            hit=False,
            fill_addr=addr & ~(self.sector_bytes - 1),
            fill_bytes=self.sector_bytes,
            writebacks=writebacks,
        )

    # ------------------------------------------------------------------
    def _touch(self, set_idx: int, way: int) -> None:
        if self.policy == "lru":
            self._ord[set_idx, way] = self._clock
            self._clock += 1
        else:
            self._rrpv[set_idx, way] = 0

    def _victim_among(self, set_idx: int, candidates: list[int]) -> int:
        """Pick the victim way among ``candidates`` per the policy."""
        if self.policy == "lru":
            ord_row = self._ord[set_idx]
            return min(candidates, key=lambda w: ord_row[w])
        return self._rrip_victim(
            candidates, self._rrpv[set_idx], self._ins[set_idx]
        )

    def _dirty_sector_writebacks(
        self, set_idx: int, way: int
    ) -> list[tuple[int, int]] | None:
        dirty = int(self._dirty[set_idx, way])
        if not dirty:
            return None
        tag = int(self._tag[set_idx, way])
        fg_row = self._fgt[set_idx, way]
        writebacks = []
        for off in range(self.sectors_per_line):
            if dirty & (1 << off):
                addr = self._sector_addr(tag, set_idx, int(fg_row[off]), off)
                writebacks.append((addr, self.sector_bytes))
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

        nways = self.ways
        sectors = self.sectors_per_line
        sector_shift = self._sector_shift
        set_shift = self._set_shift
        set_mask = self.num_sets - 1
        quota = self.way_quota
        is_lru = self.policy == "lru"
        wflag = 1 if is_write else 0
        clock0 = self._clock

        # Each access reduces to its sector (fill) address, its (tag,
        # set) group key and its fg-offset.
        key_a = addrs >> set_shift
        seen = np.zeros(self.num_sets, dtype=bool)
        seen[key_a & set_mask] = True
        sets = np.flatnonzero(seen)
        nlines = sets.size * nways
        fills = (addrs & ~(self.sector_bytes - 1)).tolist()
        keys = key_a.tolist()
        offs = ((addrs >> sector_shift) & (sectors - 1)).tolist()

        # Touched sets as flat lines: local line id = set rank * ways + way.
        tag = self._tag[sets].reshape(nlines)
        fgt = self._fgt[sets].reshape(nlines, sectors).astype(np.int64)
        ord_lines = self._ord[sets].reshape(nlines)
        valid = tag >= 0
        gkey = (tag << self._set_bits) | np.repeat(sets, nways)
        offsets = np.arange(sectors, dtype=np.int64)
        sec = (
            (gkey << set_shift)[:, None]
            | (fgt << self._fg_shift)
            | (offsets << sector_shift)
        )
        resident = valid[:, None] & (fgt >= 0)
        flag = (np.arange(nlines, dtype=np.int64) << 1)[:, None] | (
            (self._dirty[sets].reshape(nlines)[:, None] >> offsets) & 1
        )
        # resident sector address -> 2 * line + dirty
        smap = dict(zip(sec[resident].tolist(), flag[resident].tolist()))
        # per line, the sector address held at each fg-offset (-1: empty)
        secs = np.where(resident, sec, -1).tolist()
        lkey = np.where(valid, gkey, -1).tolist()
        stamp = ord_lines.tolist()
        ins = self._ins[sets].reshape(nlines).tolist()
        rrpv = self._rrpv[sets].reshape(nlines).tolist()

        # Each group's lines LRU-first (the deque's head is the LRU line),
        # and the groups at their way quota.
        groups: dict[int, deque[int]] = {}
        ldq: list = [None] * nlines  # each valid line's group deque
        by_age = np.argsort(ord_lines, kind="stable")
        for line in by_age[valid[by_age]].tolist():
            dq = ldq[line] = groups.setdefault(lkey[line], deque())
            dq.append(line)
        full = {k: dq for k, dq in groups.items() if len(dq) >= quota}
        base_of = dict(zip(sets.tolist(), range(0, nlines, nways)))
        # Free ways by set base, in the order pop() claims them: least
        # recent stamp first, the higher way of equal stamps first.
        free: dict[int, list[int]] = {}
        for w in np.flatnonzero(~valid).tolist():
            free.setdefault(w - w % nways, []).append(w)
        for free_ways in free.values():
            free_ways.sort(key=stamp.__getitem__, reverse=True)

        # Write-back events carry bit 0 as a flag (sector addresses are
        # 8 B aligned): one append per event, unpacked vectorised below.
        events: list[int] = []
        emit = events.append
        smap_get = smap.get
        smap_pop = smap.pop
        full_get = full.get
        rrip_victim = self._rrip_victim
        alloc = evicted = 0

        for clk, fill, key, off in zip(count(clock0), fills, keys, offs):
            v = smap_get(fill)
            if v is not None:
                line = v >> 1
                if is_lru:
                    stamp[line] = clk
                    dq = ldq[line]
                    if dq[-1] != line:
                        dq.remove(line)
                        dq.append(line)
                else:
                    rrpv[line] = 0
                if wflag and not v & 1:
                    smap[fill] = v | 1
                continue
            # miss: the fill precedes any write-back it displaces
            emit(fill)
            dq = full_get(key)
            if dq is not None:
                # sector replacement in the group's LRU/SRRIP-victim line
                if is_lru:
                    line = dq[0]
                    dq.rotate(-1)
                    stamp[line] = clk
                else:
                    line = rrip_victim(dq, rrpv, ins)
                    rrpv[line] = 0
                row = secs[line]
                old = row[off]
                if old >= 0 and smap_pop(old) & 1:
                    emit(old | 1)
                row[off] = fill
                smap[fill] = (line << 1) | wflag
                continue
            # whole-line allocation, evicting another tag if the set is full
            b = base_of[key & set_mask]
            free_ways = free.get(b)
            if free_ways:
                line = free_ways.pop()
            else:
                cands = [w for w in range(b, b + nways) if lkey[w] != key]
                if not cands:
                    # degenerate all-same-tag set (quota above the ways)
                    cands = list(range(b, b + nways))
                if is_lru:
                    line = min(cands, key=stamp.__getitem__)
                else:
                    line = rrip_victim(cands, rrpv, ins)
                evicted += 1
                for old in secs[line]:
                    if old >= 0 and smap_pop(old) & 1:
                        emit(old | 1)
                old_key = lkey[line]
                old_dq = ldq[line]
                old_dq.remove(line)
                if len(old_dq) < quota:
                    full.pop(old_key, None)
                    if not old_dq:
                        del groups[old_key]
            row = [-1] * sectors
            row[off] = fill
            secs[line] = row
            smap[fill] = (line << 1) | wflag
            lkey[line] = key
            rrpv[line] = RRIP_INSERT
            stamp[line] = ins[line] = clk if is_lru else clock0 + alloc
            alloc += 1
            dq = ldq[line] = groups.setdefault(key, deque())
            dq.append(line)
            if len(dq) >= quota:
                full[key] = dq

        # Write the touched sets back: fg-tags and dirty masks from the
        # sector map, tags from the group keys.
        sec_a = np.fromiter(smap.keys(), dtype=np.int64, count=len(smap))
        flag_a = np.fromiter(smap.values(), dtype=np.int64, count=len(smap))
        line_a = flag_a >> 1
        off_a = (sec_a >> sector_shift) & (sectors - 1)
        fgt_new = np.full((nlines, sectors), -1, dtype=np.int32)
        fgt_new[line_a, off_a] = (sec_a & (self.window_bytes - 1)) >> self._fg_shift
        dirty_bits = np.zeros((nlines, sectors), dtype=np.int64)
        dirty_bits[line_a, off_a] = flag_a & 1
        shape = (sets.size, nways)
        # a free line's key -1 shifts to tag -1
        self._tag[sets] = (np.asarray(lkey) >> self._set_bits).reshape(shape)
        self._fgt[sets] = fgt_new.reshape(shape + (sectors,))
        self._dirty[sets] = (dirty_bits << offsets).sum(axis=1).reshape(shape)
        self._rrpv[sets] = np.asarray(rrpv).reshape(shape)
        self._ord[sets] = np.asarray(stamp).reshape(shape)
        self._ins[sets] = np.asarray(ins).reshape(shape)
        self._clock = clock0 + (n if is_lru else alloc)

        packed = np.asarray(events, dtype=np.int64)
        wb_events = int(np.count_nonzero(packed & 1))
        misses = packed.size - wb_events
        stats = self.stats
        stats.accesses += n
        stats.requested_bytes += n * self.sector_bytes
        stats.hits += n - misses
        stats.misses += misses
        stats.fill_bytes += misses * self.sector_bytes
        stats.writeback_bytes += wb_events * self.sector_bytes
        stats.evictions += evicted
        self.sector_replacements += misses - alloc
        self.line_evictions += evicted
        return pack_events(n, n - misses, packed, self.sector_bytes)

    @staticmethod
    def _rrip_victim(cands, rrpv, ins) -> int:
        """SRRIP victim: highest RRPV wins, youngest insertion breaks
        ties (the original MRU-first list put the newest insertion
        first, and ``max`` kept the first of equals); age if none is at
        max.  Works on both the flat batched lists and the NumPy rows
        of the scalar path."""
        while True:
            best, best_r, best_i = -1, -1, -1
            for w in cands:
                r = rrpv[w]
                if r > best_r or (r == best_r and ins[w] > best_i):
                    best, best_r, best_i = w, r, ins[w]
            if best_r >= RRIP_MAX:
                return best
            for w in cands:
                if rrpv[w] < RRIP_MAX:
                    rrpv[w] += 1

    # ------------------------------------------------------------------
    def _mru_order(self, set_idx: int) -> list[int]:
        """Way indices in the original MRU-first list order."""
        key = self._ord if self.policy == "lru" else self._ins
        valid = [w for w in range(self.ways) if self._tag[set_idx, w] != -1]
        return sorted(valid, key=lambda w: -int(key[set_idx, w]))

    @property
    def _sets(self) -> list[list[_LineView]]:
        """Read-only line views per set, MRU-first (back-compat)."""
        return [
            [
                _LineView(
                    int(self._tag[s, w]),
                    self._fgt[s, w].tolist(),
                    int(self._dirty[s, w]),
                    int(self._rrpv[s, w]),
                )
                for w in self._mru_order(s)
            ]
            for s in range(self.num_sets)
        ]

    def flush(self) -> list[tuple[int, int]]:
        writebacks: list[tuple[int, int]] = []
        for set_idx in range(self.num_sets):
            for w in self._mru_order(set_idx):
                wb = self._dirty_sector_writebacks(set_idx, w)
                if wb:
                    writebacks.extend(wb)
        self._tag.fill(-1)
        self._fgt.fill(-1)
        self._dirty.fill(0)
        self._rrpv.fill(RRIP_INSERT)
        self._ord.fill(0)
        self._ins.fill(0)
        return writebacks

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.size_bytes

    @property
    def tag_bits(self) -> int:
        return self.addr_bits - self._tag_shift

    @property
    def tag_overhead_bits(self) -> int:
        lines = self.num_sets * self.ways
        return lines * self.tag_bits + lines * self.sectors_per_line * self.fg_tag_bits

    @property
    def tag_overhead_fraction(self) -> float:
        """Line-tag storage relative to data (paper: 2.05 %)."""
        return (self.num_sets * self.ways * self.tag_bits) / (self.size_bytes * 8)

    @property
    def fg_tag_overhead_fraction(self) -> float:
        """fg-tag storage relative to data (paper: 12.50 %)."""
        lines = self.num_sets * self.ways
        return (lines * self.sectors_per_line * self.fg_tag_bits) / (
            self.size_bytes * 8
        )
