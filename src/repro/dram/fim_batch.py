"""Array-backed FIM-operation stream (structure-of-arrays ``FimOpBatch``).

The collection-extended MSHR emits one scatter/gather operation per
filled (or evicted) row collection.  At paper scale a single tile
produces millions of them, so :class:`FimOpBatch` stores the stream as
seven parallel NumPy columns (``channel``/``rank``/``bank``/``row``/
``items``/``is_scatter``/``rank_level``, ~26 B per operation) and hands
them to the DRAM phase evaluator as contiguous arrays, so the
scheduling math in :mod:`repro.dram.system` vectorises instead of
walking Python objects.

It is the only form a FIM operation takes between the MSHR and the
DRAM phase: the MSHR, the OLAP queries and the engine cross-validation
all append to a batch, and ``DRAMModel.phase`` /
``PhaseAccumulator.add`` take nothing else.  The batch is a cheap
*builder* as well as a view: scalar appends land in staging lists,
batch extends keep sealed column chunks, and :meth:`columns`
consolidates lazily.
"""

from __future__ import annotations

import numpy as np

#: column order of every array-tuple view (``columns()``)
FIM_COLUMNS = (
    "channel",
    "rank",
    "bank",
    "row",
    "items",
    "is_scatter",
    "rank_level",
)

_INT_COLS = 5  # leading int64 columns; the last two are bool


def _typed(columns) -> tuple[np.ndarray, ...]:
    """Parallel ``FIM_COLUMNS`` sequences as the batch's column arrays."""
    return tuple(
        np.asarray(col, dtype=np.int64 if i < _INT_COLS else bool)
        for i, col in enumerate(columns)
    )


class FimOpBatch:
    """Append-only structure-of-arrays stream of FIM operations.

    One operation is an in-memory scatter/gather (Piccolo) or a
    rank-level gather (NMP): its location (``bank`` is the *global*
    bank id), the DRAM row it never leaves, the 8-byte words it moves
    (partially filled MSHR evictions move fewer than the maximum),
    scatter (write) vs gather (read), and ``rank_level`` for the NMP
    baseline, which performs the internal accesses over the rank's
    shared data path instead of in-bank.
    """

    __slots__ = ("_chunks", "_staging")

    def __init__(self) -> None:
        #: sealed column chunks, each a 7-tuple of parallel arrays
        self._chunks: list[tuple[np.ndarray, ...]] = []
        #: scalar-append staging area, one Python list per column
        self._staging: tuple[list, ...] = tuple([] for _ in FIM_COLUMNS)

    # -- construction ---------------------------------------------------
    def append(
        self,
        channel: int,
        rank: int,
        bank: int,
        row: int,
        items: int,
        is_scatter: bool,
        rank_level: bool = False,
    ) -> None:
        st = self._staging
        st[0].append(channel)
        st[1].append(rank)
        st[2].append(bank)
        st[3].append(row)
        st[4].append(items)
        st[5].append(is_scatter)
        st[6].append(rank_level)

    @classmethod
    def from_columns(cls, *columns: np.ndarray) -> "FimOpBatch":
        """A batch holding parallel ``FIM_COLUMNS`` arrays as one
        sealed chunk (no per-operation appends)."""
        batch = cls()
        batch._chunks.append(_typed(columns))
        return batch

    def extend(self, ops: "FimOpBatch") -> None:
        """Append another batch (chunk merge, no copies)."""
        ops._seal()
        self._seal()
        self._chunks.extend(ops._chunks)

    # -- consolidation --------------------------------------------------
    def _seal(self) -> None:
        st = self._staging
        if not st[0]:
            return
        self._chunks.append(_typed(st))
        self._staging = tuple([] for _ in FIM_COLUMNS)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The consolidated (channel, rank, bank, row, items, is_scatter,
        rank_level) arrays; cached as the single remaining chunk."""
        self._seal()
        if not self._chunks:
            return _typed([()] * len(FIM_COLUMNS))
        if len(self._chunks) > 1:
            merged = tuple(
                np.concatenate([chunk[i] for chunk in self._chunks])
                for i in range(len(FIM_COLUMNS))
            )
            self._chunks = [merged]
        return self._chunks[0]

    def __len__(self) -> int:
        return sum(chunk[0].size for chunk in self._chunks) + len(
            self._staging[0]
        )

    def __repr__(self) -> str:
        return f"FimOpBatch(n={len(self)})"


__all__ = ["FimOpBatch", "FIM_COLUMNS"]
