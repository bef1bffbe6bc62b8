"""Sorting helpers shared by the tile builders, the conventional cache
engine and the memory path.

Both helpers avoid comparison sorts of data that is already ordered:
:func:`run_starts` reads group boundaries off sorted (or run-grouped)
values, and :func:`pair_order` sorts two int columns as one packed
``int64`` key, which a stable argsort walks as a single run when the
rows are already in order.
"""

from __future__ import annotations

import math

import numpy as np


def packed_key_fits(*radices: int) -> bool:
    """True when fields with these radices pack into one ``int64`` key.

    The packed key of fields ``f0, f1, ...`` with ``0 <= fi < radices[i]``
    is ``(f0 * radices[1] + f1) * radices[2] + ...``, below the product of
    the radices; the guard keeps that product under 2**62.
    """
    return math.prod(radices) < 2**62


def pair_order(major: np.ndarray, minor: np.ndarray, radix: int) -> np.ndarray:
    """Stable permutation sorting rows by ``(major, minor)``.

    Equals ``np.lexsort((minor, major))`` for non-negative ids below
    ``radix``.  It is one stable argsort of ``major * radix + minor``
    when that key fits, which is a single timsort run on rows already in
    order; beyond the guard it falls back to ``np.lexsort``.
    """
    if packed_key_fits(radix, radix):
        key = major * radix
        key += minor
        return np.argsort(key, kind="stable")
    return np.lexsort((minor, major))


def run_starts(values: np.ndarray) -> np.ndarray:
    """Indices where a run of equal consecutive ``values`` starts.

    On sorted values these are the first occurrences ``np.unique(values,
    return_index=True)`` reports.  Empty input gives an empty result.
    """
    change = np.empty(values.size, dtype=bool)
    change[:1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return np.flatnonzero(change)
