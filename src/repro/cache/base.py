"""Cache access protocol shared by every on-chip cache design.

The timing layer is throughput-oriented: a miss installs its line
immediately and the returned :class:`AccessResult` describes the physical
traffic (fill reads, dirty write-backs) that the memory system must be
charged for.  Subsequent accesses to the same line therefore hit, which
models ideal MSHR merging of misses to in-flight lines.

Every design implements two entry points: :meth:`BaseCache.access`, one
access at a time, and :meth:`BaseCache.access_many`, the array engine
the memory paths run.  ``access`` is the oracle: the batched-equivalence
suite checks every ``access_many`` against a per-address walk of it
(``tests/reference_paths.py``).  The replay-memo hooks (``state_digest``,
snapshots, counter vectors) come from
:class:`repro.cache.batched.BatchedCacheEngine`, which every design
mixes in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class AccessResult(NamedTuple):
    """Physical consequence of one cache access.

    Attributes:
        hit: True when the requested word was already resident.
        fill_addr: byte address of the fill request (-1 when hit).
        fill_bytes: size of the fill (line or sector granularity).
        writebacks: list of (addr, nbytes) dirty evictions, or None.
    """

    hit: bool
    fill_addr: int = -1
    fill_bytes: int = 0
    writebacks: list[tuple[int, int]] | None = None


@dataclass
class CacheStats:
    """Aggregate cache activity counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writeback_bytes: int = 0
    fill_bytes: int = 0
    #: bytes the program actually asked for (8 B per access)
    requested_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0
        self.writeback_bytes = self.fill_bytes = self.requested_bytes = 0


@dataclass
class BatchResult:
    """Physical consequence of a whole batch of accesses.

    The event stream is the exact concatenation per-address
    :meth:`BaseCache.access` calls would have produced: for every
    access, in order, its fill request (when it missed) followed by its
    dirty write-backs.  Consumers that only need the DRAM request
    stream can therefore use the arrays directly without replaying
    per-access results.

    Attributes:
        accesses: number of accesses in the batch.
        hits: how many of them hit.
        ev_addr: byte address of each fill/write-back event, in order.
        ev_is_wb: True where the event is a write-back, False for fills.
        ev_bytes: size of each event in bytes.
    """

    accesses: int
    hits: int
    ev_addr: np.ndarray
    ev_is_wb: np.ndarray
    ev_bytes: np.ndarray

    @property
    def misses(self) -> int:
        return self.accesses - self.hits


class BaseCache(ABC):
    """Interface every cache design implements."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    @abstractmethod
    def access(self, addr: int, is_write: bool) -> AccessResult:
        """Perform one 8-byte-granularity access."""

    @abstractmethod
    def access_many(self, addrs: np.ndarray, is_write: bool) -> BatchResult:
        """Perform a batch of 8-byte accesses.

        Equivalent, event for event, to calling :meth:`access` on each
        address in order and packing the fills/write-backs into a
        :class:`BatchResult` (the batched-equivalence suite checks every
        design against that per-address reference).  The engine recipe
        and the shared machinery live in :mod:`repro.cache.batched` /
        docs/CACHE_ENGINES.md.
        """

    @abstractmethod
    def flush(self) -> list[tuple[int, int]]:
        """Evict everything; returns dirty (addr, nbytes) write-backs."""

    @property
    @abstractmethod
    def capacity_bytes(self) -> int:
        """Usable data capacity."""

    @property
    @abstractmethod
    def tag_overhead_bits(self) -> int:
        """Total tag/metadata storage in bits (area/energy accounting)."""
