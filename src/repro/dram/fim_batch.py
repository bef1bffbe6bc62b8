"""Array-backed FIM-operation stream (structure-of-arrays ``FimOpBatch``).

The collection-extended MSHR emits one scatter/gather operation per
filled (or evicted) row collection.  At paper scale a single tile
produces millions of them, and a ``list[FimOp]`` of frozen dataclasses
costs ~200 B per operation in Python-object overhead -- the dominant
term of peak RSS before this module existed.  :class:`FimOpBatch`
stores the same stream as seven parallel NumPy columns
(``channel``/``rank``/``bank``/``row``/``items``/``is_scatter``/
``rank_level``, ~26 B per operation) and hands them to the DRAM phase
evaluator as contiguous arrays, so the scheduling math in
:mod:`repro.dram.system` vectorises instead of walking Python objects.

The batch is a cheap *builder* as well as a view: scalar appends land
in staging lists, array extends keep sealed column chunks, and
:meth:`columns` consolidates lazily.  For ergonomics (and the existing
test-suite idiom) a batch still behaves like a sequence of
:class:`FimOp`: indexing returns a ``FimOp``, iteration yields them,
and ``==`` compares against plain lists of ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class FimOp:
    """One in-memory scatter/gather (Piccolo) or rank-level gather (NMP).

    Attributes:
        channel/rank/bank: location (bank is the *global* bank id).
        row: target DRAM row (the operation never leaves it).
        items: 8-byte words moved (partially-filled MSHR evictions issue
            fewer than the maximum).
        is_scatter: scatter (write) vs gather (read).
        rank_level: True for the NMP baseline, which performs the internal
            accesses over the rank's shared data path instead of in-bank.
    """

    channel: int
    rank: int
    bank: int
    row: int
    items: int
    is_scatter: bool
    rank_level: bool = False


def _empty_columns() -> tuple[np.ndarray, ...]:
    return tuple(
        np.empty(0, dtype=np.int64 if i < _INT_COLS else bool)
        for i in range(len(FIM_COLUMNS))
    )


class FimOpBatch:
    """Append-only structure-of-arrays stream of FIM operations."""

    __slots__ = ("_chunks", "_staging")

    def __init__(self, columns: tuple[np.ndarray, ...] | None = None) -> None:
        #: sealed column chunks, each a 7-tuple of parallel arrays
        self._chunks: list[tuple[np.ndarray, ...]] = []
        #: scalar-append staging area, one Python list per column
        self._staging: tuple[list, ...] = tuple([] for _ in FIM_COLUMNS)
        if columns is not None and columns[0].size:
            self._chunks.append(tuple(columns))

    # -- construction ---------------------------------------------------
    @classmethod
    def from_ops(cls, ops: Iterable[FimOp]) -> "FimOpBatch":
        batch = cls()
        batch.extend(ops)
        return batch

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

    def append_op(self, op: FimOp) -> None:
        self.append(
            op.channel, op.rank, op.bank, op.row,
            op.items, op.is_scatter, op.rank_level,
        )

    def extend(self, ops: "FimOpBatch | Iterable[FimOp]") -> None:
        """Append another batch (chunk merge, no copies) or FimOps."""
        if isinstance(ops, FimOpBatch):
            ops._seal()
            self._seal()
            self._chunks.extend(ops._chunks)
            return
        for op in ops:
            self.append_op(op)

    # -- consolidation --------------------------------------------------
    def _seal(self) -> None:
        st = self._staging
        if not st[0]:
            return
        self._chunks.append(
            tuple(
                np.asarray(col, dtype=np.int64 if i < _INT_COLS else bool)
                for i, col in enumerate(st)
            )
        )
        self._staging = tuple([] for _ in FIM_COLUMNS)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The consolidated (channel, rank, bank, row, items, is_scatter,
        rank_level) arrays; cached as the single remaining chunk."""
        self._seal()
        if not self._chunks:
            return _empty_columns()
        if len(self._chunks) > 1:
            merged = tuple(
                np.concatenate([chunk[i] for chunk in self._chunks])
                for i in range(len(FIM_COLUMNS))
            )
            self._chunks = [merged]
        return self._chunks[0]

    def as_tuples(self) -> tuple[tuple, ...]:
        """Plain-tuple view of every row (canonical digest/compare form)."""
        cols = self.columns()
        return tuple(
            zip(*(col.tolist() for col in cols))
        ) if cols[0].size else ()

    def to_ops(self) -> list[FimOp]:
        cols = self.columns()
        return [
            FimOp(*row)
            for row in zip(*(col.tolist() for col in cols))
        ]

    def clear(self) -> None:
        self._chunks = []
        self._staging = tuple([] for _ in FIM_COLUMNS)

    # -- sequence behaviour ---------------------------------------------
    def __len__(self) -> int:
        return sum(chunk[0].size for chunk in self._chunks) + len(
            self._staging[0]
        )

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[FimOp]:
        return iter(self.to_ops())

    def __getitem__(self, index):
        if isinstance(index, slice):
            cols = self.columns()
            return FimOpBatch(tuple(col[index].copy() for col in cols))
        cols = self.columns()
        n = cols[0].size
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("FimOpBatch index out of range")
        return FimOp(
            int(cols[0][index]),
            int(cols[1][index]),
            int(cols[2][index]),
            int(cols[3][index]),
            int(cols[4][index]),
            bool(cols[5][index]),
            bool(cols[6][index]),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, FimOpBatch):
            a, b = self.columns(), other.columns()
            if a[0].size != b[0].size:
                return False
            return all(np.array_equal(x, y) for x, y in zip(a, b))
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            return self.to_ops() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FimOpBatch(n={len(self)})"

    @property
    def nbytes(self) -> int:
        """Bytes held by sealed column chunks (RSS accounting aid)."""
        return sum(
            col.nbytes for chunk in self._chunks for col in chunk
        )


__all__ = ["FimOp", "FimOpBatch", "FIM_COLUMNS"]
