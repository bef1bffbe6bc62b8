"""Physical address mapping: byte address -> (channel, rank, bank, row, col).

The default interleave, from LSB to MSB above the burst offset, is

    [ row | column | rank | bank | channel ]

i.e. consecutive 64 B blocks round-robin across channels, then banks,
then ranks (maximising bank-level parallelism for both streams and
random traffic), and only then walk the columns of each bank's open row
(streams still enjoy open-row hits: each bank sees ascending columns of
one row until a whole row stripe is consumed).  A destination tile of
W bytes therefore spreads across min(banks, W / burst) banks while
occupying only ceil(W / (banks * row_bytes)) rows per bank -- exactly the
structure graph tiling and the collection-extended MSHR exploit.

The bank index is additionally XOR-hashed with the low row bits
(permutation-based interleaving, standard in high-performance memory
controllers) so power-of-two strides -- e.g. OLAP column scans over
128 B rows -- do not alias onto a subset of banks.

All decode helpers are vectorised over NumPy arrays; the hot paths hand
whole miss streams through at once.
"""

from __future__ import annotations

import numpy as np

from repro.dram.spec import DRAMConfig
from repro.utils.units import log2_exact


class AddressMapper:
    """Bit-sliced address decoding for a :class:`DRAMConfig`."""

    def __init__(self, config: DRAMConfig) -> None:
        spec = config.spec
        self.config = config
        self.burst_shift = log2_exact(spec.burst_bytes)
        self.channel_bits = log2_exact(config.channels)
        self.column_bits = log2_exact(spec.row_bytes // spec.burst_bytes)
        self.bank_bits = log2_exact(spec.banks_per_rank)
        self.rank_bits = log2_exact(config.ranks)
        self.row_bits = log2_exact(config.rows_per_bank)
        self._word_shift = 3  # 8-byte FIM word granularity

    # ------------------------------------------------------------------
    def decode_many(
        self, addrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised decode: returns (channel, rank, bank, row, column)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        block = addrs >> self.burst_shift
        channel = block & (self.config.channels - 1)
        x = block >> self.channel_bits
        bank = x & (self.config.spec.banks_per_rank - 1)
        x >>= self.bank_bits
        rank = x & (self.config.ranks - 1)
        x >>= self.rank_bits
        column = x & ((1 << self.column_bits) - 1)
        x >>= self.column_bits
        row = x & (self.config.rows_per_bank - 1)
        # Permutation-based interleaving: spread power-of-two strides.
        bank = bank ^ (row & (self.config.spec.banks_per_rank - 1)) \
            ^ (column & (self.config.spec.banks_per_rank - 1))
        return channel, rank, bank, row, column

    # ------------------------------------------------------------------
    def bank_key_many(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised (global bank id, row id) for episode grouping.

        The global bank id enumerates every bank in the system:
        ``((channel * ranks) + rank) * banks_per_rank + bank``.
        """
        channel, rank, bank, row, _ = self.decode_many(addrs)
        spec = self.config.spec
        global_bank = (channel * self.config.ranks + rank) * spec.banks_per_rank + bank
        return global_bank, row

    def word_in_row_many(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorised in-row 8-byte word index (the FIM offset payload)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        _, _, _, _, column = self.decode_many(addrs)
        words_per_burst = self.config.spec.burst_bytes // 8
        return column * words_per_burst + (
            (addrs >> self._word_shift) & (words_per_burst - 1)
        )

    def decode_fim_many(
        self, addrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The FIM view of :meth:`decode_many`: one pass for a whole
        event stream.

        Returns ``(channel, rank, global_bank, row, row_key, word)``
        arrays -- everything the collection-extended MSHR's batch path
        needs.  ``global_bank`` enumerates every bank in the system,
        ``row_key`` is the unique (bank, row) key the MSHR groups by and
        ``word`` is the 8-byte FIM offset within the row.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        channel, rank, bank, row, column = self.decode_many(addrs)
        spec = self.config.spec
        global_bank = (
            channel * self.config.ranks + rank
        ) * spec.banks_per_rank + bank
        row_key = row * self.config.total_banks + global_bank
        words_per_burst = spec.burst_bytes >> 3
        word = column * words_per_burst + (
            (addrs >> self._word_shift) & (words_per_burst - 1)
        )
        return channel, rank, global_bank, row, row_key, word

    def channel_of_many(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorised channel index."""
        addrs = np.asarray(addrs, dtype=np.int64)
        return (addrs >> self.burst_shift) & (self.config.channels - 1)
