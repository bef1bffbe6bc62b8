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
``tests/reference_paths.py``.  A path runs every batch it is given;
it keeps no memo.  What a stationary run (one whose iterations repeat
their streams) skips, it skips one level up: each path exposes its
``state_digest`` (the state a batch's outcome depends on),
``state_snapshot``/``state_restore`` and its counter vector, and the
system charges a repeated stretch of phases from its recording instead
of running the path (:meth:`repro.accel.base.AcceleratorSystem.run`).
A frontier run (BFS, CC, SSSP, SSWP) never asks for any of them.

Chunked tile streaming: ``run`` works through its batch
:data:`~repro.utils.units.CHUNK_ACCESSES` accesses at a time and hands
each chunk's DRAM requests to the phase it was given (a
:class:`repro.dram.system.PhaseAccumulator`) before the next chunk
starts, and ``flush`` hands over the final write-backs the same way.
Per-chunk temporaries -- event arrays and the phase's request
stream -- therefore stay O(chunk) at any tile size, while the
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

    #: no path keeps a replay memo; the benchmark's counters read this
    memo = None

    def __init__(self, cache: BaseCache) -> None:
        self.cache = cache

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

    def state_snapshot(self) -> tuple:
        """A copy of the state :meth:`state_digest` covers."""
        return self.cache.state_snapshot()

    def state_restore(self, snap: tuple) -> None:
        self.cache.state_restore(snap)

    def counter_vector(self) -> tuple[int, ...]:
        """The cache's counters (the replay delta domain)."""
        return self.cache.counter_vector()

    def counter_apply(self, delta: tuple[int, ...]) -> None:
        self.cache.counter_apply(delta)

    def _run_batch(
        self, addrs: np.ndarray, rmw: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """One chunk through the cache: its (address, is-write-back)
        request arrays."""
        res = self.cache.access_many(addrs, rmw)
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

    #: no path keeps a replay memo; the benchmark's counters read this
    memo = None

    def __init__(
        self,
        cache: BaseCache,
        mshr: CollectionExtendedMSHR,
        locality_monitor: LocalityMonitor | None = None,
    ) -> None:
        self.cache = cache
        self.mshr = mshr
        self.monitor = locality_monitor
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

    def state_snapshot(self) -> tuple:
        """A copy of the state :meth:`state_digest` covers, taken
        between runs (every run hands its FIM ops and bursts off)."""
        return (
            self.cache.state_snapshot(),
            self.mshr.state_snapshot(),
            self.monitor.state_tuple() if self.monitor is not None else None,
            (self._last_bypass_fill, self._last_bypass_wb),
        )

    def state_restore(self, snap: tuple) -> None:
        cache_snap, mshr_snap, monitor_state, bypass_state = snap
        self.cache.state_restore(cache_snap)
        self.mshr.state_restore(mshr_snap)
        if monitor_state is not None:
            self.monitor.state_restore(monitor_state)
        self._last_bypass_fill, self._last_bypass_wb = bypass_state

    def counter_vector(self) -> tuple[int, ...]:
        """The cache's counters, then the MSHR's (the replay delta
        domain)."""
        return self.cache.counter_vector() + self.mshr.counter_vector()

    def counter_apply(self, delta: tuple[int, ...]) -> None:
        split = len(delta) - len(self.mshr.counter_vector())
        self.cache.counter_apply(delta[:split])
        self.mshr.counter_apply(delta[split:])

    # ------------------------------------------------------------------
    def _run_batch(self, addrs: np.ndarray, rmw: bool) -> None:
        """Run one chunk through the cache and MSHR engines."""
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
