"""Command-trace checker for the command-level engine.

Checks *entire engine traces*, the Sec. VI virtual-row sequences of
FIM requests included, against the per-bank core constraints (tRCD,
tRP, tRAS, tWR after the write data lands, and column commands only to
the open row) and the cross-bank and cross-rank rules a real DDR4 bus
must obey:

- tRRD_S / tRRD_L between ACTs of one rank (bank-group aware),
- tFAW: at most four ACTs per rank in any tFAW window,
- tCCD_S / tCCD_L between column commands of one rank,
- tWTR_S / tWTR_L write-to-read turnaround,
- tRTP read-to-precharge,
- tRFC after REF, and every-bank-precharged before REF,
- data-bus occupancy: transfers on one channel must not overlap,
- command-bus occupancy: one command slot per clock.

The checker is deliberately an *independent* reimplementation of the
rules (it shares no scheduling code with the controller), so an engine
bug cannot hide itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.dram.engine.commands import Command, CommandType
from repro.dram.engine.timing import TimingTable

_PAST = -(1 << 60)


class EngineProtocolViolation(AssertionError):
    """A timing/state rule broken by an engine trace."""


@dataclass
class _BankCheck:
    open_row: int | None = None
    last_act: int = _PAST
    last_pre_eff: int = _PAST   # effective precharge completion anchor
    last_rd: int = _PAST
    last_wr_data_end: int = _PAST


@dataclass
class _RankCheck:
    acts: deque = field(default_factory=lambda: deque(maxlen=4))
    last_act_all: int = _PAST
    last_act_group: dict[int, int] = field(default_factory=dict)
    last_col_all: int = _PAST
    last_col_group: dict[int, int] = field(default_factory=dict)
    last_wr_end_all: int = _PAST
    last_wr_end_group: dict[int, int] = field(default_factory=dict)
    refresh_until: int = 0


class TraceChecker:
    """Validate one channel's command trace against a timing table."""

    def __init__(self, timing: TimingTable, ranks: int) -> None:
        self.timing = timing
        self.banks: dict[tuple[int, int], _BankCheck] = {}
        self.ranks: dict[int, _RankCheck] = {r: _RankCheck()
                                             for r in range(ranks)}
        self.last_cmd_cycle = _PAST
        self.data_busy_until = _PAST
        self.commands_checked = 0

    # ------------------------------------------------------------------
    def _fail(self, cmd: Command, message: str) -> None:
        raise EngineProtocolViolation(
            f"@{cmd.cycle} {cmd.kind.value} r{cmd.rank} b{cmd.bank}: "
            f"{message}"
        )

    def _bank(self, cmd: Command) -> _BankCheck:
        return self.banks.setdefault((cmd.rank, cmd.bank), _BankCheck())

    # ------------------------------------------------------------------
    def check_trace(self, trace: list[Command]) -> None:
        """Validate a whole command trace in order."""
        for cmd in trace:
            self.check(cmd)

    def check(self, cmd: Command) -> None:
        """Validate one command against every rule; raises on breach."""
        t = self.timing
        if cmd.cycle < self.last_cmd_cycle:
            self._fail(cmd, "trace not time-ordered")
        if cmd.cycle == self.last_cmd_cycle and self.commands_checked:
            self._fail(cmd, "two commands in one bus slot")
        self.last_cmd_cycle = cmd.cycle

        rank = self.ranks[cmd.rank]
        bank = self._bank(cmd)
        group = cmd.bank // t.banks_per_group

        if cmd.cycle < rank.refresh_until and cmd.kind is not CommandType.REF:
            self._fail(cmd, "command during tRFC")

        handler = {
            CommandType.ACT: self._check_act,
            CommandType.PRE: self._check_pre,
            CommandType.RD: self._check_col,
            CommandType.WR: self._check_col,
            CommandType.REF: self._check_ref,
        }[cmd.kind]
        handler(cmd, rank, bank, group)
        self.commands_checked += 1

    # ------------------------------------------------------------------
    def _check_act(self, cmd: Command, rank: _RankCheck,
                   bank: _BankCheck, group: int) -> None:
        t = self.timing
        if bank.open_row is not None and not cmd.virtual:
            self._fail(cmd, f"bank already open at row {bank.open_row}")
        if cmd.cycle < bank.last_pre_eff + t.tRP:
            self._fail(cmd, "tRP violated")
        if cmd.cycle < bank.last_act + t.tRC:
            self._fail(cmd, "tRC violated")
        if cmd.cycle < rank.last_act_all + t.tRRD_S:
            self._fail(cmd, "tRRD_S violated")
        if cmd.cycle < rank.last_act_group.get(group, _PAST) + t.tRRD_L:
            self._fail(cmd, "tRRD_L violated")
        if len(rank.acts) == 4 and cmd.cycle < rank.acts[0] + t.tFAW:
            self._fail(cmd, "tFAW violated")
        bank.open_row = cmd.row
        bank.last_act = cmd.cycle
        rank.acts.append(cmd.cycle)
        rank.last_act_all = cmd.cycle
        rank.last_act_group[group] = cmd.cycle

    def _check_pre(self, cmd: Command, rank: _RankCheck,
                   bank: _BankCheck, group: int) -> None:
        t = self.timing
        if cmd.cycle < bank.last_act + t.tRAS:
            self._fail(cmd, "tRAS violated")
        if cmd.cycle < bank.last_rd + t.tRTP:
            self._fail(cmd, "tRTP violated")
        if cmd.cycle < bank.last_wr_data_end + t.tWR:
            self._fail(cmd, "tWR violated")
        bank.open_row = None
        bank.last_pre_eff = cmd.cycle

    def _check_col(self, cmd: Command, rank: _RankCheck,
                   bank: _BankCheck, group: int) -> None:
        t = self.timing
        is_read = cmd.kind is CommandType.RD
        if not cmd.virtual:
            if bank.open_row is None:
                self._fail(cmd, "column command with no open row")
            if cmd.row is not None and cmd.row != bank.open_row:
                self._fail(cmd, f"row {cmd.row} is not the open row "
                                f"{bank.open_row}")
        if cmd.cycle < bank.last_act + t.tRCD:
            self._fail(cmd, "tRCD violated")
        if cmd.cycle < rank.last_col_all + t.tCCD_S:
            self._fail(cmd, "tCCD_S violated")
        if cmd.cycle < rank.last_col_group.get(group, _PAST) + t.tCCD_L:
            self._fail(cmd, "tCCD_L violated")
        if is_read:
            if cmd.cycle < rank.last_wr_end_all + t.tWTR_S:
                self._fail(cmd, "tWTR_S violated")
            if cmd.cycle < (rank.last_wr_end_group.get(group, _PAST)
                            + t.tWTR_L):
                self._fail(cmd, "tWTR_L violated")
        rank.last_col_all = cmd.cycle
        rank.last_col_group[group] = cmd.cycle
        if cmd.data_clocks:
            if cmd.data_start < self.data_busy_until:
                self._fail(cmd, "data bus overlap")
            expected = cmd.cycle + (t.tCL if is_read else t.tCWL)
            if cmd.data_start < expected:
                self._fail(cmd, "data before CAS latency elapsed")
            self.data_busy_until = cmd.data_end
        if is_read:
            bank.last_rd = cmd.cycle
        else:
            data_end = cmd.data_end if cmd.data_clocks else (
                cmd.cycle + t.tCWL + t.tBL
            )
            bank.last_wr_data_end = data_end
            rank.last_wr_end_all = max(rank.last_wr_end_all, data_end)
            rank.last_wr_end_group[group] = max(
                rank.last_wr_end_group.get(group, _PAST), data_end
            )

    def _check_ref(self, cmd: Command, rank: _RankCheck,
                   bank: _BankCheck, group: int) -> None:
        for (rank_id, _), state in self.banks.items():
            if rank_id == cmd.rank and state.open_row is not None:
                self._fail(cmd, "REF with a bank open")
        rank.refresh_until = cmd.cycle + self.timing.tRFC


def check_engine_result(result: Any) -> int:
    """Validate every channel trace of an :class:`EngineResult`.

    Returns the number of commands checked; raises
    :class:`EngineProtocolViolation` on the first broken rule.
    """
    total = 0
    for trace in result.traces:
        checker = TraceChecker(result.timing, ranks=_ranks_in(trace))
        checker.check_trace(trace)
        total += checker.commands_checked
    return total


def _ranks_in(trace: list[Command]) -> int:
    return max((cmd.rank for cmd in trace), default=0) + 1
