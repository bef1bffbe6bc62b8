"""Functional Piccolo-FIM DRAM device (Sec. IV-B, Fig. 4).

Unlike the timing model in :mod:`repro.dram`, this module moves *real
bytes*: each bank owns a data-cell array, a sense-amplifier row buffer,
and the three Piccolo additions -- an offset buffer, a data buffer and a
tiny internal controller.  ``repro validate`` (the FPGA-emulation
substitute, :mod:`repro.validate.end_to_end`) drives a bank with the
command-level engine's Sec. VI traces of standard DDR4 commands and
checks bit-exact results.

The device is deliberately small and explicit: the paper's internal
controller is 126 transistors, and the Python mirror is a handful of
integer index operations.
"""

from __future__ import annotations

import numpy as np

from repro.dram.spec import DRAMConfig


class FimCommandError(RuntimeError):
    """An illegal command for the current bank state."""


class FimBank:
    """One DRAM bank with Piccolo's offset/data buffers.

    Words are 8 bytes; a row holds ``spec.row_words`` words.  The offset
    buffer keeps up to ``config.fim_items_per_op`` column offsets, the
    data buffer the same number of words (Fig. 4: 128 bits per buffer
    per bank for x16 DDR4, i.e. eight 16-bit offsets / the per-chip
    slice of eight words; eight on 32 B-burst devices only under the
    long-burst design).
    """

    def __init__(self, config: DRAMConfig, rows: int = 64) -> None:
        self.config = config
        self.rows = rows
        self.row_words = config.spec.row_words
        self.items = config.fim_items_per_op
        self.cells = np.zeros((rows, self.row_words), dtype=np.uint64)
        self.row_buffer = np.zeros(self.row_words, dtype=np.uint64)
        self.open_row: int | None = None
        self.offset_buffer = np.zeros(self.items, dtype=np.int64)
        self.offset_count = 0
        self.data_buffer = np.zeros(self.items, dtype=np.uint64)
        self.data_count = 0

    # ---------------- standard DRAM behaviour -------------------------
    def activate(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise FimCommandError(f"row {row} out of range")
        if self.open_row is not None:
            raise FimCommandError("activate with a row already open")
        self.open_row = row
        self.row_buffer[:] = self.cells[row]

    def precharge(self) -> None:
        if self.open_row is not None:
            self.cells[self.open_row] = self.row_buffer
        self.open_row = None

    def read_word(self, word: int) -> int:
        self._check_open()
        return int(self.row_buffer[word])

    def write_word(self, word: int, value: int) -> None:
        self._check_open()
        self.row_buffer[word] = np.uint64(value)

    def _check_open(self) -> None:
        if self.open_row is None:
            raise FimCommandError("no open row")

    # ---------------- Piccolo additions (shaded in Fig. 4) ------------
    def write_offset_buffer(self, offsets: list[int]) -> None:
        """Step 1: the host sends offsets over the data bus."""
        if not 0 < len(offsets) <= self.items:
            raise FimCommandError(
                f"offset burst must carry 1..{self.items} offsets"
            )
        for off in offsets:
            if not 0 <= off < self.row_words:
                raise FimCommandError(f"offset {off} exceeds the row")
        self.offset_buffer[: len(offsets)] = offsets
        self.offset_count = len(offsets)

    def gather_execute(self) -> None:
        """Steps 2-4: the internal controller picks each offset's word
        from the open row into the data buffer."""
        self._check_open()
        if self.offset_count == 0:
            raise FimCommandError("gather with an empty offset buffer")
        for i in range(self.offset_count):
            self.data_buffer[i] = self.row_buffer[self.offset_buffer[i]]
        self.data_count = self.offset_count

    def scatter_execute(self) -> None:
        """Steps 3-5 of Fig. 4b: write buffered words at each offset."""
        self._check_open()
        if self.offset_count == 0:
            raise FimCommandError("scatter with an empty offset buffer")
        if self.data_count < self.offset_count:
            raise FimCommandError("scatter without buffered data")
        for i in range(self.offset_count):
            self.row_buffer[self.offset_buffer[i]] = self.data_buffer[i]

    def read_data_buffer(self) -> list[int]:
        """Step 5 of Fig. 4a: one burst returns the gathered words."""
        if self.data_count == 0:
            raise FimCommandError("data buffer empty")
        return [int(v) for v in self.data_buffer[: self.data_count]]

    def write_data_buffer(self, values: list[int]) -> None:
        """Scatter step 2: host stages the words to scatter."""
        if not 0 < len(values) <= self.items:
            raise FimCommandError(
                f"data burst must carry 1..{self.items} words"
            )
        self.data_buffer[: len(values)] = np.asarray(values, dtype=np.uint64)
        self.data_count = len(values)


class FimChip:
    """A Piccolo-FIM DRAM chip: an array of :class:`FimBank`.

    Convenience composite for tests, whose whole-operation helpers skip
    the command sequence; the timing model never instantiates it
    (addresses-only).
    """

    def __init__(self, config: DRAMConfig, rows: int = 64) -> None:
        self.config = config
        self.banks = [
            FimBank(config, rows) for _ in range(config.spec.banks_per_rank)
        ]

    def bank(self, index: int) -> FimBank:
        return self.banks[index]

    def gather(self, bank: int, row: int, offsets: list[int]) -> list[int]:
        """Whole gather operation against bank state (test helper)."""
        b = self.banks[bank]
        if b.open_row != row:
            if b.open_row is not None:
                b.precharge()
            b.activate(row)
        b.write_offset_buffer(offsets)
        b.gather_execute()
        return b.read_data_buffer()

    def scatter(
        self, bank: int, row: int, offsets: list[int], values: list[int]
    ) -> None:
        """Whole scatter operation against bank state (test helper)."""
        if len(offsets) != len(values):
            raise FimCommandError("offsets and values must pair up")
        b = self.banks[bank]
        if b.open_row != row:
            if b.open_row is not None:
                b.precharge()
            b.activate(row)
        b.write_offset_buffer(offsets)
        b.write_data_buffer(values)
        b.scatter_execute()
