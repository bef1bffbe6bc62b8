"""Collection-extended MSHR (Sec. V-C, Fig. 7).

Collects fine-grained misses (gathers) and dirty write-backs (scatters)
that fall in the same DRAM row until eight column offsets are available,
then issues one Piccolo-FIM operation.  The structure is a direct-mapped
buffer indexed by the DRAM row address; a conflicting allocation evicts
the old entry as a *partially filled* gather/scatter.

Controller flow on an incoming request (Fig. 7, right):

1. offset hits SC-MSHR  -> served by the buffered write-back data
   (read-after-write forwarding; no DRAM traffic).
2. offset hits GA-MSHR  -> MSHR hit; only a subentry is recorded.
3. otherwise            -> the offset (plus subentry or write-back data)
   is stored; reaching ``items_per_op`` offsets fires the FIM operation.

The NMP baseline reuses this structure with ``rank_level=True`` so the
issued operations serialise on the rank's shared data path instead of
executing in-bank (Sec. VII-A/C).

Requests arrive only as event arrays
(:meth:`~CollectionExtendedMSHR.add_batch`), and every issued operation
lands in a :class:`FimOpBatch`.  The per-event walk the batch engine
must match -- one request at a time, decoding each address with plain
integer shifts -- is the test reference ``ReferenceMSHR`` in
``tests/reference_paths.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.dram.address import AddressMapper
from repro.dram.fim_batch import FimOpBatch
from repro.utils.units import log2_exact


@dataclass
class MSHRStats:
    """Counters for the collection behaviour (Sec. V-C)."""

    gathers_full: int = 0
    gathers_partial: int = 0
    scatters_full: int = 0
    scatters_partial: int = 0
    forwarded_reads: int = 0   # served from SC-MSHR write-back data
    merged_reads: int = 0      # subentry merges into a pending gather
    merged_writes: int = 0     # coalesced into a pending scatter
    conflict_evictions: int = 0

    @property
    def total_ops(self) -> int:
        return (
            self.gathers_full + self.gathers_partial
            + self.scatters_full + self.scatters_partial
        )


@dataclass
class _Entry:
    """One direct-mapped row entry: GA and SC halves share the row."""

    row_key: int
    channel: int
    rank: int
    bank: int
    row: int
    ga_offsets: set[int] = field(default_factory=set)
    sc_offsets: set[int] = field(default_factory=set)


class CollectionExtendedMSHR:
    """Direct-mapped miss-collection buffer feeding Piccolo-FIM.

    Args:
        mapper: address mapper of the target memory system.
        num_entries: row entries (paper: 4 K, scaled with the workload).
        items_per_op: offsets that trigger a full operation (8 for DDR4,
            4 for 32 B-burst devices).
        rank_level: issue NMP-style rank-level operations instead of
            in-bank FIM operations.
    """

    def __init__(
        self,
        mapper: AddressMapper,
        num_entries: int = 4096,
        items_per_op: int = 8,
        rank_level: bool = False,
    ) -> None:
        log2_exact(num_entries)
        if items_per_op < 1:
            raise ValueError("items_per_op must be >= 1")
        self.mapper = mapper
        self.num_entries = num_entries
        self.items_per_op = items_per_op
        self.rank_level = rank_level
        self.stats = MSHRStats()
        self._slots: list[_Entry | None] = [None] * num_entries
        self._total_banks = mapper.config.total_banks

    # ------------------------------------------------------------------
    def add_batch(self, addrs: np.ndarray, is_wb: np.ndarray) -> FimOpBatch:
        """Register a whole fill/write-back event stream at once.

        Behaviourally identical to the per-event walk in
        ``tests/reference_paths.py`` (``ReferenceMSHR.add_read`` /
        ``add_write``, one pure-int decode per event; the
        batched-equivalence suite enforces it).  The address decode is
        one vectorised pass, per-request overhead collapses into a
        single tight loop over precomputed row keys and in-row word
        offsets, and the issued operations are emitted straight into an
        array-backed :class:`FimOpBatch`.

        Raises:
            ValueError: ``is_wb`` is not as long as ``addrs``.
        """
        ops = FimOpBatch()
        addrs = np.asarray(addrs, dtype=np.int64)
        is_wb = np.asarray(is_wb, dtype=bool)
        if is_wb.shape != addrs.shape:
            raise ValueError(
                f"is_wb has shape {is_wb.shape}; addrs has {addrs.size} entries"
            )
        if addrs.size == 0:
            return ops
        _, _, _, _, row_key, word = self.mapper.decode_fim_many(addrs)
        slots = self._slots
        slot_mask = self.num_entries - 1
        items_per_op = self.items_per_op
        total_banks = self._total_banks
        banks_per_rank = self.mapper.config.spec.banks_per_rank
        ranks = self.mapper.config.ranks
        rank_level = self.rank_level
        emit = ops.append
        forwarded = merged_r = merged_w = 0
        gathers_full = scatters_full = conflicts = 0

        for rk, wd, wb in zip(row_key.tolist(), word.tolist(), is_wb.tolist()):
            entry = slots[rk & slot_mask]
            if entry is None or entry.row_key != rk:
                if entry is not None:
                    conflicts += 1
                    self._drain_entry_into(entry, emit)
                # recover the location from the row key (rare path)
                gb = rk % total_banks
                chra = gb // banks_per_rank
                entry = _Entry(
                    row_key=rk,
                    channel=chra // ranks,
                    rank=chra % ranks,
                    bank=gb,
                    row=rk // total_banks,
                )
                slots[rk & slot_mask] = entry
            sc = entry.sc_offsets
            if wb:
                if wd in sc:
                    merged_w += 1
                    continue
                sc.add(wd)
                if len(sc) >= items_per_op:
                    emit(
                        entry.channel, entry.rank, entry.bank, entry.row,
                        len(sc), True, rank_level,
                    )
                    scatters_full += 1
                    sc.clear()
            else:
                if wd in sc:
                    # Served from buffered write-back data (no DRAM traffic).
                    forwarded += 1
                    continue
                ga = entry.ga_offsets
                if wd in ga:
                    merged_r += 1
                    continue
                ga.add(wd)
                if len(ga) >= items_per_op:
                    emit(
                        entry.channel, entry.rank, entry.bank, entry.row,
                        len(ga), False, rank_level,
                    )
                    gathers_full += 1
                    ga.clear()

        stats = self.stats
        stats.forwarded_reads += forwarded
        stats.merged_reads += merged_r
        stats.merged_writes += merged_w
        stats.gathers_full += gathers_full
        stats.scatters_full += scatters_full
        stats.conflict_evictions += conflicts
        return ops

    def _drain_entry_into(self, entry: _Entry, emit) -> None:
        """Issue ``entry``'s pending gather, then its pending scatter,
        through ``emit`` (a :meth:`FimOpBatch.append`), counting each as
        full or partial."""
        if entry.ga_offsets:
            emit(
                entry.channel, entry.rank, entry.bank, entry.row,
                len(entry.ga_offsets), False, self.rank_level,
            )
            if len(entry.ga_offsets) >= self.items_per_op:
                self.stats.gathers_full += 1
            else:
                self.stats.gathers_partial += 1
            entry.ga_offsets.clear()
        if entry.sc_offsets:
            emit(
                entry.channel, entry.rank, entry.bank, entry.row,
                len(entry.sc_offsets), True, self.rank_level,
            )
            if len(entry.sc_offsets) >= self.items_per_op:
                self.stats.scatters_full += 1
            else:
                self.stats.scatters_partial += 1
            entry.sc_offsets.clear()

    def flush(self) -> FimOpBatch:
        """Drain every pending entry (end of iteration / run)."""
        ops = FimOpBatch()
        emit = ops.append
        for i, entry in enumerate(self._slots):
            if entry is not None:
                self._drain_entry_into(entry, emit)
                self._slots[i] = None
        return ops

    # ------------------------------------------------------------------
    # Exact-replay support (a stationary run's fast-forward)
    # ------------------------------------------------------------------
    def state_digest(self) -> bytes:
        """Canonical digest of all pending collections."""
        h = hashlib.blake2b(digest_size=16)
        for i, entry in enumerate(self._slots):
            if entry is not None:
                h.update(
                    repr(
                        (
                            i,
                            entry.row_key,
                            sorted(entry.ga_offsets),
                            sorted(entry.sc_offsets),
                        )
                    ).encode()
                )
        return h.digest()

    def state_snapshot(self) -> list:
        return [
            None
            if e is None
            else _Entry(
                row_key=e.row_key,
                channel=e.channel,
                rank=e.rank,
                bank=e.bank,
                row=e.row,
                ga_offsets=set(e.ga_offsets),
                sc_offsets=set(e.sc_offsets),
            )
            for e in self._slots
        ]

    def state_restore(self, snap: list) -> None:
        self._slots = [
            None
            if e is None
            else _Entry(
                row_key=e.row_key,
                channel=e.channel,
                rank=e.rank,
                bank=e.bank,
                row=e.row,
                ga_offsets=set(e.ga_offsets),
                sc_offsets=set(e.sc_offsets),
            )
            for e in snap
        ]

    def counter_vector(self) -> tuple[int, ...]:
        s = self.stats
        return (
            s.gathers_full,
            s.gathers_partial,
            s.scatters_full,
            s.scatters_partial,
            s.forwarded_reads,
            s.merged_reads,
            s.merged_writes,
            s.conflict_evictions,
        )

    def counter_apply(self, delta: tuple[int, ...]) -> None:
        s = self.stats
        s.gathers_full += delta[0]
        s.gathers_partial += delta[1]
        s.scatters_full += delta[2]
        s.scatters_partial += delta[3]
        s.forwarded_reads += delta[4]
        s.merged_reads += delta[5]
        s.merged_writes += delta[6]
        s.conflict_evictions += delta[7]
