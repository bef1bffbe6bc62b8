"""Random-access memory paths: cache -> (MSHR) -> DRAM request streams.

The accelerator's prefetcher streams topology and sequential properties
straight from DRAM; only the *random* vertex-property accesses traverse
the on-chip cache (Fig. 1).  These classes run a batch of 8-byte accesses
through a cache and translate the resulting fills/write-backs into the
physical requests the DRAM phase evaluator consumes:

- :class:`ConventionalMemoryPath`: burst-granularity fills/write-backs
  (GraphDyns-Cache baseline).
- :class:`FineGrainedMemoryPath`: 8 B fills/write-backs batched into
  scatter/gather operations by the collection-extended MSHR (Piccolo and
  the NMP baseline, plus every fine-grained cache of Fig. 11).

A :class:`LocalityMonitor` (Sec. VIII-A) can redirect detected-sequential
traffic to conventional bursts, the fallback the paper suggests for
regular workloads.

Execution (PERFORMANCE.md):

Both paths run one engine: the whole tile's address array goes through
``cache.access_many`` and the resulting fill/write-back event arrays
feed ``mshr.add_batch`` (or the burst accumulator) without any
per-address Python calls.  The seed's per-address walk over the
per-event oracles (``cache.access``, ``mshr.add_read``/``add_write``,
:meth:`LocalityMonitor.observe`) lives on only as the test reference in
``tests/reference_paths.py``.  On top of the engine, an exact replay
memo (:class:`BatchReplayMemo`) keeps one record per address stream: a
batch whose stream was last simulated from the same cache and MSHR
state replays the recorded events, counter deltas and end state
instead of re-simulating.  Only stationary runs build a memo -- runs
whose iterations repeat their streams: PageRank on the vertex-centric
engine and every edge-centric run -- and they replay from their first
repeated iteration, the second.  Once an iteration ends in the state
it started in, the system fast-forwards every later one without
reaching the path (:meth:`repro.accel.base.AcceleratorSystem.run`); in
the toy and mid PageRank cells measured that is the second, so the
memo pays for that one iteration.  The memo lookup and the system's
fixed-point check both key on the path's ``state_digest``.  A
frontier run (BFS, CC, SSSP, SSWP) follows a different stream each
iteration, so its path is built with ``replay_capacity=0`` and never
hashes a digest.

Chunked tile streaming: ``run`` works through its batch
:data:`~repro.utils.units.CHUNK_ACCESSES` accesses at a time and hands
each chunk's DRAM requests to the phase it was given (a
:class:`repro.dram.system.PhaseAccumulator`) before the next chunk
starts, and ``flush`` hands over the final write-backs the same way.
Per-chunk temporaries -- event arrays, memo records, the phase's
request stream -- therefore stay O(chunk) at any tile size, while the
produced counters and event streams do not depend on the chunk length
(the engine is exactly equivalent to the per-address reference, which
has no batch boundaries, and all cross-chunk state carries over).
Issued FIM operations accumulate in an array-backed
:class:`repro.dram.fim_batch.FimOpBatch` (structure-of-arrays), not a
Python object list.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cache.base import BaseCache
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.dram.fim_batch import FimOpBatch
from repro.dram.system import PhaseAccumulator
from repro.utils import units
from repro.utils.sorting import run_starts

#: default replay-memo capacity (address streams remembered per path);
#: a path built with ``replay_capacity=0`` has no memo
REPLAY_CAPACITY_DEFAULT = 256


class BatchReplayMemo:
    """Exact replay of previously simulated batches, one record per
    address stream.

    A batch's outcome is fully determined by its address stream (with
    the access type) and the state it meets: the cache and MSHR, plus
    the monitor state and bypass watermarks on a monitored path.  The
    memo keys each record by a digest of the stream and keeps the
    digest of the state it was recorded under; :meth:`get` returns the
    record only when both match, and the path then restores the
    recorded end state and replays the recorded events and counter
    deltas instead of re-simulating.  A miss records at once
    (:meth:`put`), replacing the stream's earlier record, so a run whose
    iterations repeat their streams replays from its first repeat and
    the memo holds at most one record per stream.  (The system
    fast-forwards every iteration after the first that ends in the
    state it started in, so those never look the memo up.)  Once it
    holds ``capacity`` streams it admits no new one: iterations present
    their streams in the same cyclic order, so evicting the least
    recently used record would drop each one just before its repeat.
    Digests use canonical (rank-based) recency, so identical iterations
    hit even though the absolute LRU clock advanced.

    A memo holds at least one record; a path without replay has no
    memo (``replay_capacity=0``), so it never hashes a digest.
    """

    def __init__(self, capacity: int = REPLAY_CAPACITY_DEFAULT) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: stream digest -> (state digest, record)
        self._records: dict[bytes, tuple[bytes, tuple]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._records)

    def key(self, parts: list[bytes]) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for part in parts:
            h.update(part)
        return h.digest()

    def get(self, stream: bytes, state: bytes) -> tuple | None:
        """The record of ``stream`` if it was recorded under ``state``."""
        held = self._records.get(stream)
        if held is None or held[0] != state:
            self.misses += 1
            return None
        self.hits += 1
        return held[1]

    def put(self, stream: bytes, state: bytes, record: tuple) -> None:
        """Record ``stream``'s outcome under ``state``, replacing the
        stream's earlier record; a new stream is admitted only while
        the memo holds fewer than ``capacity``."""
        if stream in self._records or len(self._records) < self.capacity:
            self._records[stream] = (state, record)


class _RequestAccumulator:
    """Ordered DRAM request stream built from array chunks (the
    fine-grained path's bypass bursts)."""

    def __init__(self) -> None:
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []

    def append_arrays(self, addrs: np.ndarray, writes: np.ndarray) -> None:
        if addrs.size:
            self._chunks.append((addrs, writes))

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._chunks:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        addrs = np.concatenate([c[0] for c in self._chunks])
        writes = np.concatenate([c[1] for c in self._chunks])
        self._chunks = []
        return addrs, writes


def _make_memo(replay_capacity: int | None) -> BatchReplayMemo | None:
    """The path's replay memo: None (the default capacity) or a positive
    capacity builds one, 0 means no memo, and a negative one raises."""
    capacity = (
        REPLAY_CAPACITY_DEFAULT if replay_capacity is None else replay_capacity
    )
    if capacity < 0:
        raise ValueError(f"replay_capacity must be >= 0, got {capacity}")
    return BatchReplayMemo(capacity) if capacity else None


def counter_delta(
    after: tuple[int, ...], before: tuple[int, ...]
) -> tuple[int, ...]:
    """Elementwise ``after - before`` of two counter vectors."""
    return tuple(a - b for a, b in zip(after, before))


def _flushed_addrs(cache: BaseCache) -> np.ndarray:
    """Flush ``cache`` and return its dirty write-back addresses, in order."""
    return np.asarray([addr for addr, _ in cache.flush()], dtype=np.int64)


class ConventionalMemoryPath:
    """Cache misses become burst-sized DRAM reads/writes."""

    def __init__(
        self,
        cache: BaseCache,
        replay_capacity: int | None = None,
    ) -> None:
        self.cache = cache
        self.memo = _make_memo(replay_capacity)

    def run(self, addrs: np.ndarray, rmw: bool, phase: PhaseAccumulator) -> None:
        """Process a batch of 8 B accesses (``rmw`` marks read-modify-write),
        one chunk at a time; each chunk's line fills and write-backs go
        to ``phase`` before the next chunk starts."""
        addrs = np.asarray(addrs, dtype=np.int64)
        chunk = units.CHUNK_ACCESSES
        for start in range(0, addrs.size, chunk):
            ev_addr, ev_is_wb = self._run_batch(addrs[start : start + chunk], rmw)
            if ev_addr.size:
                phase.add(addrs=ev_addr, is_write=ev_is_wb)

    def state_digest(self) -> bytes:
        """Digest of the state a batch's outcome depends on: the cache's."""
        return self.cache.state_digest()

    def counter_vector(self) -> tuple[int, ...]:
        """The cache's counters (the replay delta domain)."""
        return self.cache.counter_vector()

    def counter_apply(self, delta: tuple[int, ...]) -> None:
        self.cache.counter_apply(delta)

    def _run_batch(
        self, addrs: np.ndarray, rmw: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """One chunk through the cache (or the memo): its (address,
        is-write-back) request arrays."""
        memo = self.memo
        if memo is not None:
            stream = memo.key([addrs.tobytes(), b"w" if rmw else b"r"])
            state = self.state_digest()
            rec = memo.get(stream, state)
            if rec is not None:
                ev_addr, ev_is_wb, counters, snap = rec
                self.cache.state_restore(snap)
                self.counter_apply(counters)
                return ev_addr, ev_is_wb
            before = self.counter_vector()
        res = self.cache.access_many(addrs, rmw)
        if memo is not None:
            delta = counter_delta(self.counter_vector(), before)
            memo.put(
                stream,
                state,
                (res.ev_addr, res.ev_is_wb, delta, self.cache.state_snapshot()),
            )
        return res.ev_addr, res.ev_is_wb

    def flush(self, phase: PhaseAccumulator) -> None:
        """Write back all dirty state into ``phase`` (end of run)."""
        wb_addrs = _flushed_addrs(self.cache)
        if wb_addrs.size:
            phase.add(addrs=wb_addrs, is_write=np.ones(wb_addrs.size, dtype=bool))


class LocalityMonitor:
    """Sequential-pattern detector (Sec. VIII-A).

    Watches address deltas over windows of ``window`` accesses (i.e.
    ``window - 1`` consecutive pairs); when the fraction of +8 B deltas
    in a window reaches ``threshold`` the path falls back to
    conventional bursts, re-evaluated every window.  The last address of
    a window seeds the first delta of the next, so no pair is ever
    dropped at a window boundary.
    """

    def __init__(self, window: int = 64, threshold: float = 0.75) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.window = window
        self.threshold = threshold
        self._last_addr: int | None = None
        self._pairs = 0
        self._sequential = 0
        self.bypass = False

    def observe(self, addr: int) -> None:
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

    def observe_many(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`observe`: returns the bypass state in
        effect *after* each observation (what per-address :meth:`observe`
        calls would have left), updating the monitor to the same end
        state."""
        addrs = np.asarray(addrs, dtype=np.int64)
        n = int(addrs.size)
        if n == 0:
            return np.empty(0, dtype=bool)
        pair_valid = np.ones(n, dtype=bool)
        seq = np.empty(n, dtype=bool)
        if self._last_addr is None:
            pair_valid[0] = False
            seq[0] = False
        else:
            seq[0] = int(addrs[0]) - self._last_addr == 8
        np.equal(addrs[1:] - addrs[:-1], 8, out=seq[1:])
        seq &= pair_valid

        window_pairs = self.window - 1
        pair_count = self._pairs + np.cumsum(pair_valid)
        evals = np.flatnonzero(((pair_count % window_pairs) == 0) & pair_valid)
        seq_cum = self._sequential + np.cumsum(seq.astype(np.int64))

        out = np.empty(n, dtype=bool)
        if evals.size == 0:
            out.fill(self.bypass)
            self._pairs = int(pair_count[-1])
            self._sequential = int(seq_cum[-1])
        else:
            seq_at = seq_cum[evals]
            window_seq = np.diff(np.concatenate(([0], seq_at)))
            flags = (window_seq / window_pairs) >= self.threshold
            # segment [0, evals[0]] keeps the incoming state; each
            # evaluation's verdict applies from its own access onward
            bounds = np.concatenate(([0], evals, [n]))
            lengths = np.diff(bounds)
            values = np.concatenate(([self.bypass], flags))
            out = np.repeat(values, lengths)
            self.bypass = bool(flags[-1])
            self._pairs = int(pair_count[-1]) - window_pairs * evals.size
            self._sequential = int(seq_cum[-1] - seq_cum[evals[-1]])
        self._last_addr = int(addrs[-1])
        return out

    def state_tuple(self) -> tuple:
        return (self._last_addr, self._pairs, self._sequential, self.bypass)

    def state_restore(self, state: tuple) -> None:
        self._last_addr, self._pairs, self._sequential, self.bypass = state


class FineGrainedMemoryPath:
    """Fine-grained cache + collection-extended MSHR -> FIM operations."""

    def __init__(
        self,
        cache: BaseCache,
        mshr: CollectionExtendedMSHR,
        locality_monitor: LocalityMonitor | None = None,
        replay_capacity: int | None = None,
    ) -> None:
        self.cache = cache
        self.mshr = mshr
        self.monitor = locality_monitor
        self.memo = _make_memo(replay_capacity)
        #: the current chunk's FIM ops and the conventional bursts it
        #: issued while the locality monitor bypasses
        self.fim_ops = FimOpBatch()
        self._bypass = _RequestAccumulator()
        self._last_bypass_fill = -1
        self._last_bypass_wb = -1

    # ------------------------------------------------------------------
    def run(self, addrs: np.ndarray, rmw: bool, phase: PhaseAccumulator) -> None:
        """Process a batch of 8 B accesses through cache + MSHR, one
        chunk at a time; each chunk's FIM ops and bypass bursts go to
        ``phase`` before the next chunk starts (cache, MSHR, monitor
        and burst-coalescing state carry over)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        chunk = units.CHUNK_ACCESSES
        for start in range(0, addrs.size, chunk):
            self._run_batch(addrs[start : start + chunk], rmw)
            self._hand_off(phase)

    def _hand_off(self, phase: PhaseAccumulator) -> None:
        """Give the accumulated FIM ops and bypass bursts to ``phase``."""
        ops, self.fim_ops = self.fim_ops, FimOpBatch()
        addrs, writes = self._bypass.drain()
        if len(ops) or addrs.size:
            phase.add(addrs=addrs, is_write=writes, fim_ops=ops)

    def state_digest(self) -> bytes:
        """Digest of the state a batch's outcome depends on: the cache,
        the MSHR and, on a monitored path, the monitor state and the
        bypass watermarks."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.cache.state_digest())
        h.update(self.mshr.state_digest())
        if self.monitor is not None:
            # repro-lint: disable=RL001 -- state_tuple() is ints only
            h.update(repr(self.monitor.state_tuple()).encode())
            h.update(
                # repro-lint: disable=RL001 -- two int block addresses
                repr((self._last_bypass_fill, self._last_bypass_wb)).encode()
            )
        return h.digest()

    def counter_vector(self) -> tuple[int, ...]:
        """The cache's counters, then the MSHR's (the replay delta
        domain)."""
        return self.cache.counter_vector() + self.mshr.counter_vector()

    def counter_apply(self, delta: tuple[int, ...]) -> None:
        split = len(delta) - len(self.mshr.counter_vector())
        self.cache.counter_apply(delta[:split])
        self.mshr.counter_apply(delta[split:])

    def _run_batch(self, addrs: np.ndarray, rmw: bool) -> None:
        memo = self.memo
        if memo is not None:
            stream = memo.key([addrs.tobytes(), b"w" if rmw else b"r"])
            state = self.state_digest()
            rec = memo.get(stream, state)
            if rec is not None:
                self._replay(rec)
                return
            before = self.counter_vector()
            ops_before = len(self.fim_ops)
            bypass_chunks_before = len(self._bypass._chunks)
        self._simulate(addrs, rmw)
        if memo is not None:
            record = (
                self.fim_ops.tail_columns(ops_before),
                tuple(self._bypass._chunks[bypass_chunks_before:]),
                counter_delta(self.counter_vector(), before),
                self.cache.state_snapshot(),
                self.mshr.state_snapshot(),
                self.monitor.state_tuple() if self.monitor is not None else None,
                (self._last_bypass_fill, self._last_bypass_wb),
            )
            memo.put(stream, state, record)

    def _replay(self, rec: tuple) -> None:
        (
            op_columns,
            bypass_chunks,
            counters,
            cache_snap,
            mshr_snap,
            monitor_state,
            bypass_state,
        ) = rec
        self.fim_ops.extend_columns(op_columns)
        for chunk in bypass_chunks:
            self._bypass.append_arrays(*chunk)
        self.counter_apply(counters)
        self.cache.state_restore(cache_snap)
        self.mshr.state_restore(mshr_snap)
        if monitor_state is not None:
            self.monitor.state_restore(monitor_state)
        self._last_bypass_fill, self._last_bypass_wb = bypass_state

    # ------------------------------------------------------------------
    def _simulate(self, addrs: np.ndarray, rmw: bool) -> None:
        """Run one batch through the cache and MSHR engines (no memo)."""
        if self.monitor is None:
            res = self.cache.access_many(addrs, rmw)
            self.fim_ops.extend(self.mshr.add_batch(res.ev_addr, res.ev_is_wb))
            return
        flags = self.monitor.observe_many(addrs)
        # split into maximal constant-bypass segments, in order
        starts = run_starts(flags)
        ends = np.append(starts[1:], flags.size)
        for start, end in zip(starts.tolist(), ends.tolist()):
            segment = addrs[start:end]
            res = self.cache.access_many(segment, rmw)
            if not flags[start]:
                self.fim_ops.extend(
                    self.mshr.add_batch(res.ev_addr, res.ev_is_wb)
                )
                continue
            # Conventional burst fills; consecutive words of the same
            # 64 B block share one burst (per fill/write-back stream).
            blocks = res.ev_addr & ~63
            is_wb = res.ev_is_wb
            keep = np.zeros(blocks.size, dtype=bool)
            for wb_flag, carry_attr in ((False, "_last_bypass_fill"), (True, "_last_bypass_wb")):
                idx = np.flatnonzero(is_wb == wb_flag)
                if idx.size == 0:
                    continue
                cat = blocks[idx]
                cat_keep = np.empty(idx.size, dtype=bool)
                cat_keep[0] = cat[0] != getattr(self, carry_attr)
                np.not_equal(cat[1:], cat[:-1], out=cat_keep[1:])
                keep[idx] = cat_keep
                setattr(self, carry_attr, int(cat[-1]))
            sel = np.flatnonzero(keep)
            self._bypass.append_arrays(blocks[sel], is_wb[sel])

    # ------------------------------------------------------------------
    def flush(self, phase: PhaseAccumulator) -> None:
        """Drain cache dirty state and pending MSHR entries into
        ``phase`` (end of run)."""
        wb_addrs = _flushed_addrs(self.cache)
        if wb_addrs.size:
            self.fim_ops.extend(
                self.mshr.add_batch(wb_addrs, np.ones(wb_addrs.size, dtype=bool))
            )
        self.fim_ops.extend(self.mshr.flush())
        self._hand_off(phase)
