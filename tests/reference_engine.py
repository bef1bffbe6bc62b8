"""The per-command scalar DRAM controller: the engine's test oracle.

``repro.dram.engine`` runs one controller, the vectorized
:class:`~repro.dram.engine.batched.BatchedChannelController`.  This
module keeps the walk it was derived from, as the bit-exactness
reference:

- :class:`BankState`, :class:`RankState` and :class:`DataBus` -- per-bank
  and per-rank timing state machines plus the shared data bus.  Each
  bank tracks its open row and the earliest cycle at which each command
  type may legally issue; each rank adds the cross-bank constraints
  (tRRD, tFAW, bank-group-aware tCCD/tWTR, refresh).  The controller
  consults ``earliest(...)`` before issuing and calls ``issue(...)``
  afterwards, which rolls the affected windows forward -- the same
  structure Ramulator uses.
- :class:`ChannelController` -- one channel's FR-FCFS scheduler with the
  Sec. VI FIM sequencing, driven one command per :meth:`step`; every
  step rescans every queued request and re-derives each candidate's
  earliest cycle from the state machines above.  Its scheduling policy
  is documented in :mod:`repro.dram.engine.batched`.
- :class:`ReferenceDRAMEngine` -- a :class:`~repro.dram.engine.DRAMEngine`
  whose ``run`` drives one :class:`ChannelController` per channel with
  the plain cycle-by-cycle walk.

``tests/test_engine_batched_equivalence.py`` diffs the production engine
against :class:`ReferenceDRAMEngine` (traces, stats, per-request
cycles), ``tests/test_engine_scheduler.py``, ``test_engine_controller.py``
and ``test_engine_state.py`` pin the oracle's own behaviour, and
``benchmarks/bench_engine_xval.py`` runs the mid engine-xval cells on
it.  The module is in the ``mypy --strict`` perimeter (``mypy.ini``), so
it imports nothing from pytest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dram.engine.batched import (
    WRITE_HI,
    WRITE_LO,
    _FimProgram,
    _FimStep,
    _NEVER,
)
from repro.dram.engine.commands import (
    DATA_BUFFER_COLUMN,
    OFFSET_BUFFER_COLUMN,
    Command,
    CommandType,
    EngineStats,
    Request,
    RequestType,
)
from repro.dram.engine.engine import MAX_CYCLES, DRAMEngine, EngineResult
from repro.dram.engine.timing import TimingTable

#: effectively "never constrained yet"
_PAST = -(1 << 60)


@dataclass
class BankState:
    """Timing state of one bank."""

    open_row: int | None = None
    next_act: int = 0
    next_pre: int = 0
    next_rd: int = 0
    next_wr: int = 0
    #: cycle of the last ACT (to honour tRAS on PRE)
    last_act: int = _PAST

    def earliest(self, kind: CommandType) -> int:
        """Earliest legal issue cycle for ``kind`` on this bank."""
        if kind is CommandType.ACT:
            return self.next_act
        if kind is CommandType.PRE:
            return self.next_pre
        if kind is CommandType.RD:
            return self.next_rd
        if kind is CommandType.WR:
            return self.next_wr
        raise ValueError(f"bank-level command expected, got {kind}")


class RankState:
    """Timing state of one rank: banks plus cross-bank windows."""

    def __init__(self, timing: TimingTable) -> None:
        self.timing = timing
        self.banks = [BankState() for _ in range(timing.banks_per_rank)]
        #: last ACT cycle anywhere in the rank, per bank group
        self._last_act_group = [_PAST] * timing.bank_groups
        self._last_act_rank = _PAST
        #: issue cycles of recent ACTs for the tFAW sliding window
        self._act_window: deque[int] = deque(maxlen=4)
        #: last column command cycle, per group and rank-wide
        self._last_col_group = [_PAST] * timing.bank_groups
        self._last_col_rank = _PAST
        #: end of the last write data burst, per group and rank-wide
        self._last_wr_end_group = [_PAST] * timing.bank_groups
        self._last_wr_end_rank = _PAST
        #: end of the last read data burst (for write-after-read turnaround)
        self._last_rd_end_rank = _PAST
        #: rank blocked until this cycle by refresh
        self.refresh_until = 0
        self.next_refresh_due = timing.tREFI

    # ------------------------------------------------------------------
    def group_of(self, bank: int) -> int:
        """Bank-group index of a rank-local bank id."""
        return bank // self.timing.banks_per_group

    def all_banks_closed(self) -> bool:
        """Whether every bank of the rank is precharged."""
        return all(b.open_row is None for b in self.banks)

    # ------------------------------------------------------------------
    def earliest(self, kind: CommandType, bank: int) -> int:
        """Earliest legal issue cycle for ``kind`` on ``bank``."""
        t = self.timing
        state = self.banks[bank]
        bound = max(state.earliest(kind), self.refresh_until)
        if kind is CommandType.ACT:
            group = self.group_of(bank)
            bound = max(
                bound,
                self._last_act_rank + t.tRRD_S,
                self._last_act_group[group] + t.tRRD_L,
            )
            if len(self._act_window) == 4:
                bound = max(bound, self._act_window[0] + t.tFAW)
        elif kind in (CommandType.RD, CommandType.WR):
            group = self.group_of(bank)
            bound = max(
                bound,
                self._last_col_rank + t.tCCD_S,
                self._last_col_group[group] + t.tCCD_L,
            )
            if kind is CommandType.RD:
                # Write-to-read turnaround from the end of write data.
                bound = max(
                    bound,
                    self._last_wr_end_rank + t.tWTR_S,
                    self._last_wr_end_group[group] + t.tWTR_L,
                )
            else:
                # Read-to-write: data-bus direction turnaround; the bus
                # model enforces occupancy, this adds the switch gap.
                bound = max(bound, self._last_rd_end_rank + 1)
        return bound

    def earliest_refresh(self) -> int:
        """Refresh needs every bank precharged and all tRP elapsed."""
        bound = max(self.refresh_until, self.next_refresh_due)
        for bank in self.banks:
            bound = max(bound, bank.next_act)
        return bound

    # ------------------------------------------------------------------
    def issue(self, kind: CommandType, bank: int, cycle: int,
              row: int | None = None, data_end: int | None = None) -> None:
        """Record an issued command and roll the timing windows.

        ``data_end`` is the actual last data-bus clock of a RD/WR (which
        bus contention may push past the nominal CAS-latency position);
        recovery windows (tWR, tWTR, turnarounds) anchor on it.
        """
        t = self.timing
        state = self.banks[bank]
        group = self.group_of(bank)
        if kind is CommandType.ACT:
            state.open_row = row
            state.last_act = cycle
            state.next_act = cycle + t.tRC
            state.next_pre = cycle + t.tRAS
            state.next_rd = cycle + t.tRCD
            state.next_wr = cycle + t.tRCD
            self._last_act_rank = cycle
            self._last_act_group[group] = cycle
            self._act_window.append(cycle)
        elif kind is CommandType.PRE:
            state.open_row = None
            state.next_act = max(state.next_act, cycle + t.tRP)
        elif kind is CommandType.RD:
            self._last_col_rank = cycle
            self._last_col_group[group] = cycle
            if data_end is None:
                data_end = cycle + t.tCL + t.tBL
            self._last_rd_end_rank = max(self._last_rd_end_rank, data_end)
            # RD -> PRE needs tRTP.
            state.next_pre = max(state.next_pre, cycle + t.tRTP)
        elif kind is CommandType.WR:
            self._last_col_rank = cycle
            self._last_col_group[group] = cycle
            if data_end is None:
                data_end = cycle + t.tCWL + t.tBL
            self._last_wr_end_rank = max(self._last_wr_end_rank, data_end)
            self._last_wr_end_group[group] = max(
                self._last_wr_end_group[group], data_end
            )
            # Write recovery: data end -> PRE.
            state.next_pre = max(state.next_pre, data_end + t.tWR)
        elif kind is CommandType.REF:
            self.refresh_until = cycle + t.tRFC
            self.next_refresh_due += t.tREFI
            for b in self.banks:
                b.next_act = max(b.next_act, self.refresh_until)
        else:
            raise ValueError(f"unhandled command {kind}")


@dataclass
class DataBus:
    """Shared per-channel data bus: one transfer at a time.

    Tracks the cycle up to which the bus is reserved and which rank last
    drove it (a rank switch costs tRTRS).
    """

    timing: TimingTable
    busy_until: int = 0
    last_rank: int = -1
    busy_clocks: int = 0
    _last_dir_read: bool = True

    def earliest_data_start(self, rank: int, cycle_data_start: int,
                            is_read: bool) -> int:
        """Earliest start for a transfer wanting to begin at the given
        cycle, honouring occupancy and rank/direction switches."""
        start = max(cycle_data_start, self.busy_until)
        if self.last_rank >= 0 and rank != self.last_rank:
            start = max(start, self.busy_until + self.timing.tRTRS)
        if self._last_dir_read != is_read:
            start = max(start, self.busy_until + 1)
        return start

    def reserve(self, rank: int, start: int, clocks: int,
                is_read: bool) -> None:
        """Book the bus for one transfer starting at ``start``."""
        if start < self.busy_until:
            raise ValueError("data bus double-booked")
        self.busy_until = start + clocks
        self.busy_clocks += clocks
        self.last_rank = rank
        self._last_dir_read = is_read


class ChannelController:
    """One channel's scheduler; drive with :meth:`step`."""

    def __init__(
        self,
        timing: TimingTable,
        ranks: int,
        channel: int = 0,
        queue_depth: int = 32,
        fim_items: int = 8,
        fim_offset_bursts: int = 1,
        fim_data_bursts: int = 1,
        refresh_enabled: bool = True,
    ) -> None:
        self.timing = timing
        self.channel = channel
        self.queue_depth = queue_depth
        self.fim_items = fim_items
        self.fim_offset_bursts = fim_offset_bursts
        self.fim_data_bursts = fim_data_bursts
        self.refresh_enabled = refresh_enabled
        self.ranks = [RankState(timing) for _ in range(ranks)]
        self.bus = DataBus(timing)
        self.read_q: list[Request] = []
        self.write_q: list[Request] = []
        self.fim_q: list[Request] = []
        #: at most one in-flight FIM program per bank
        self._programs: dict[tuple[int, int], _FimProgram] = {}
        #: physically open row per (rank, bank) across virtual sequences
        self._physical_row: dict[tuple[int, int], int | None] = {}
        self._write_mode = False
        self.trace: list[Command] = []
        self.stats = EngineStats()
        self.finished: list[Request] = []

    # ------------------------------------------------------------------
    # Queue admission
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        """Admit one request (caller respects queue_depth via
        :meth:`can_accept`)."""
        if request.kind is RequestType.READ:
            self.read_q.append(request)
        elif request.kind is RequestType.WRITE:
            self.write_q.append(request)
        else:
            self.fim_q.append(request)

    def can_accept(self, kind: RequestType) -> bool:
        """Whether the queue for ``kind`` has room."""
        queue = {
            RequestType.READ: self.read_q,
            RequestType.WRITE: self.write_q,
        }.get(kind, self.fim_q)
        return len(queue) < self.queue_depth

    @property
    def pending(self) -> int:
        """Outstanding work: queued requests plus in-flight programs."""
        return (
            len(self.read_q) + len(self.write_q) + len(self.fim_q)
            + len(self._programs)
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def step(self, now: int) -> tuple[int, bool]:
        """Issue at most one command at or after ``now``.

        Returns ``(next_cycle, issued)``: the cycle at which the
        controller next wants control, and whether a command issued.
        With an empty system ``next_cycle`` is a refresh deadline or
        ``_NEVER``.
        """
        candidates: list[tuple[int, int, object]] = []  # (cycle, prio, action)

        if self.refresh_enabled:
            for rank_id, rank in enumerate(self.ranks):
                if now >= rank.next_refresh_due:
                    cycle, action = self._refresh_action(rank_id, now)
                    candidates.append((cycle, 0, action))

        for key, program in self._programs.items():
            cycle = self._fim_step_earliest(key, program, now)
            candidates.append((cycle, 1, ("fim", key)))

        fim_index = self._next_startable_fim()
        if fim_index is not None:
            request = self.fim_q[fim_index]
            candidates.append((max(now, request.arrival), 2,
                               ("fim_start", fim_index)))

        self._update_write_mode()
        queue = self.write_q if self._write_mode else self.read_q
        other = self.read_q if self._write_mode else self.write_q
        for source in (queue, other):
            action = self._best_regular(source, now)
            if action is not None:
                cycle, act = action
                # Non-preferred direction only when preferred is empty.
                prio = 3 if source is queue else 4
                candidates.append((cycle, prio, act))
            if source is queue and action is not None:
                break

        if not candidates:
            due = min(
                (r.next_refresh_due for r in self.ranks), default=_NEVER
            ) if self.refresh_enabled else _NEVER
            return due, False

        candidates.sort(key=lambda c: (c[0], c[1]))
        cycle, _, action = candidates[0]
        if cycle > now:
            return cycle, False
        self._execute(action, cycle)
        if action[0] == "fim_start":
            # Starting a program consumes no command-bus slot; schedule
            # again in the same cycle.
            return self.step(now)
        return cycle + 1, True

    # ------------------------------------------------------------------
    def _update_write_mode(self) -> None:
        hi = max(1, int(self.queue_depth * WRITE_HI))
        lo = max(0, int(self.queue_depth * WRITE_LO))
        if self._write_mode:
            if len(self.write_q) <= lo and self.read_q:
                self._write_mode = False
        else:
            if len(self.write_q) >= hi or (not self.read_q and self.write_q):
                self._write_mode = True

    def _next_startable_fim(self) -> int | None:
        """Oldest queued FIM request whose bank has no active program."""
        seen: set[tuple[int, int]] = set()
        for index, request in enumerate(self.fim_q):
            key = (request.rank, request.bank)
            if key in self._programs or key in seen:
                seen.add(key)
                continue
            return index
        return None

    # ------------------------------------------------------------------
    # Regular read/write service
    # ------------------------------------------------------------------
    def _best_regular(self, queue: list[Request],
                      now: int) -> tuple[int, object] | None:
        """First-Ready FCFS over the whole queue.

        Every queued request contributes its next needed command (column
        for a row hit, ACT for a closed bank, PRE for a conflict) with
        its earliest legal cycle; the scheduler picks the earliest-ready
        command, preferring row hits and then age on ties.  Scanning the
        whole queue is what lets preparation commands of different banks
        overlap -- the essence of bank-level parallelism.
        """
        if not queue:
            return None
        timing = self.timing
        best_col: tuple[int, int, int, object] | None = None
        best_prep: tuple[int, int, object] | None = None
        touched_banks: set[tuple[int, int]] = set()
        for index, request in enumerate(queue):
            key = (request.rank, request.bank)
            if key in self._programs:
                continue  # bank busy with a FIM sequence
            rank = self.ranks[request.rank]
            bank = rank.banks[request.bank]
            if bank.open_row == request.row:
                is_read = request.kind is not RequestType.WRITE
                kind = CommandType.RD if is_read else CommandType.WR
                cycle = max(now, request.arrival,
                            rank.earliest(kind, request.bank))
                # Rank the hit by when its data could actually move:
                # this batches same-rank transfers (avoiding tRTRS) and
                # is what a bus-aware controller optimises for.
                lead = timing.tCL if is_read else timing.tCWL
                data = self.bus.earliest_data_start(request.rank,
                                                    cycle + lead, is_read)
                candidate = (data, cycle, index,
                             ("column", queue, index))
                if best_col is None or candidate[:3] < best_col[:3]:
                    best_col = candidate
            elif key in touched_banks:
                # An older request already owns this bank's next
                # preparation command; do not reorder behind it.
                continue
            elif bank.open_row is None:
                cycle = max(now, request.arrival,
                            rank.earliest(CommandType.ACT, request.bank))
                if best_prep is None or (cycle, index) < best_prep[:2]:
                    best_prep = (cycle, index, ("act", queue, index))
            else:
                cycle = max(now, request.arrival,
                            rank.earliest(CommandType.PRE, request.bank))
                if best_prep is None or (cycle, index) < best_prep[:2]:
                    best_prep = (cycle, index, ("pre", queue, index))
            touched_banks.add(key)
        if best_col is None and best_prep is None:
            return None
        if best_col is None:
            return best_prep[0], best_prep[2]
        if best_prep is None or best_prep[0] >= best_col[1]:
            return best_col[1], best_col[3]
        # A preparation command fits in an earlier command-bus slot
        # without delaying the chosen column command.
        return best_prep[0], best_prep[2]

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def _refresh_action(self, rank_id: int, now: int) -> tuple[int, object]:
        rank = self.ranks[rank_id]
        for bank_id, bank in enumerate(rank.banks):
            if bank.open_row is not None and (rank_id, bank_id) not in self._programs:
                cycle = max(now, rank.earliest(CommandType.PRE, bank_id))
                return cycle, ("pre_for_ref", rank_id, bank_id)
        if not rank.all_banks_closed():
            # Remaining open banks belong to FIM programs; wait for them.
            return _NEVER, ("noop",)
        return max(now, rank.earliest_refresh()), ("refresh", rank_id)

    # ------------------------------------------------------------------
    # FIM sequencing
    # ------------------------------------------------------------------
    def _start_fim(self, index: int) -> None:
        request = self.fim_q.pop(index)
        key = (request.rank, request.bank)
        rank = self.ranks[request.rank]
        bank = rank.banks[request.bank]
        steps: list[_FimStep] = []
        physical = self._physical_row.get(key, bank.open_row)
        if physical != request.row:
            if bank.open_row is not None:
                steps.append(_FimStep(CommandType.PRE, virtual=False))
            steps.append(_FimStep(CommandType.ACT, virtual=False))
        for burst in range(self.fim_offset_bursts):
            steps.append(_FimStep(CommandType.WR, virtual=True, bursts=1,
                                  column=OFFSET_BUFFER_COLUMN))
        if request.kind is RequestType.SCATTER:
            for burst in range(self.fim_data_bursts):
                steps.append(_FimStep(CommandType.WR, virtual=True,
                                      bursts=1, column=DATA_BUFFER_COLUMN))
        steps.append(_FimStep(CommandType.PRE, virtual=True))
        steps.append(_FimStep(CommandType.ACT, virtual=True))
        if request.kind is RequestType.GATHER:
            for burst in range(self.fim_data_bursts):
                steps.append(_FimStep(CommandType.RD, virtual=True,
                                      bursts=1, column=DATA_BUFFER_COLUMN,
                                      window_bound=True))
        else:
            # Dummy trigger write keeping the activation cadence.
            steps.append(_FimStep(CommandType.WR, virtual=True, bursts=1,
                                  column=OFFSET_BUFFER_COLUMN,
                                  window_bound=True))
        self._programs[key] = _FimProgram(request=request, steps=steps)

    def _fim_step_earliest(self, key: tuple[int, int],
                           program: _FimProgram, now: int) -> int:
        rank_id, bank_id = key
        rank = self.ranks[rank_id]
        step = program.current
        cycle = max(now, rank.earliest(step.kind, bank_id))
        if step.window_bound and program.offsets_ready >= 0:
            # Sec. VI feasibility: the internal scatter/gather needs
            # items x tCCD_L after the buffer payload lands.
            window = self.fim_items * self.timing.tCCD_L
            cycle = max(cycle, program.offsets_ready + window)
        return cycle

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def _execute(self, action: Any, cycle: int) -> None:
        tag = action[0]
        if tag == "fim_start":
            self._start_fim(action[1])
            return
        if tag == "refresh":
            rank_id = action[1]
            self.ranks[rank_id].issue(CommandType.REF, 0, cycle)
            self._record(Command(cycle, CommandType.REF, rank_id, 0))
            self.stats.refreshes += 1
            return
        if tag in ("pre", "pre_for_ref"):
            if tag == "pre":
                _, queue, index = action
                request = queue[index]
                rank_id, bank_id = request.rank, request.bank
            else:
                _, rank_id, bank_id = action
            self.ranks[rank_id].issue(CommandType.PRE, bank_id, cycle)
            self._physical_row[(rank_id, bank_id)] = None
            self._record(Command(cycle, CommandType.PRE, rank_id, bank_id))
            self.stats.pres += 1
            return
        if tag == "act":
            _, queue, index = action
            request = queue[index]
            rank = self.ranks[request.rank]
            rank.issue(CommandType.ACT, request.bank, cycle, row=request.row)
            self._physical_row[(request.rank, request.bank)] = request.row
            self._record(Command(cycle, CommandType.ACT, request.rank,
                                 request.bank, row=request.row,
                                 req_id=request.req_id))
            self.stats.acts += 1
            return
        if tag == "column":
            _, queue, index = action
            request = queue.pop(index)
            self._issue_column(request, cycle)
            return
        if tag == "fim":
            self._issue_fim_step(action[1], cycle)
            return
        raise ValueError(f"unknown action {tag!r}")

    def _issue_column(self, request: Request, cycle: int) -> None:
        timing = self.timing
        rank = self.ranks[request.rank]
        is_read = request.kind is RequestType.READ
        kind = CommandType.RD if is_read else CommandType.WR
        lead = timing.tCL if is_read else timing.tCWL
        start = self.bus.earliest_data_start(request.rank, cycle + lead,
                                             is_read)
        self.bus.reserve(request.rank, start, timing.tBL, is_read)
        rank.issue(kind, request.bank, cycle, data_end=start + timing.tBL)
        if request.issue_cycle < 0:
            request.issue_cycle = cycle
        request.finish_cycle = start + timing.tBL
        self.finished.append(request)
        self.stats.reads += is_read
        self.stats.writes += not is_read
        self.stats.total_latency += request.latency
        self.stats.finished_requests += 1
        self._record(Command(cycle, kind, request.rank, request.bank,
                             row=request.row, column=request.column,
                             req_id=request.req_id, data_clocks=timing.tBL,
                             data_start=start))

    def _issue_fim_step(self, key: tuple[int, int], cycle: int) -> None:
        program = self._programs[key]
        request = program.request
        step = program.current
        rank_id, bank_id = key
        rank = self.ranks[rank_id]
        timing = self.timing
        row = request.row if step.kind is CommandType.ACT else None
        if request.issue_cycle < 0:
            request.issue_cycle = cycle
        data_start = 0
        data_end = None
        if step.bursts:
            is_read = step.kind is CommandType.RD
            lead = timing.tCL if is_read else timing.tCWL
            data_start = self.bus.earliest_data_start(rank_id, cycle + lead,
                                                      is_read)
            self.bus.reserve(rank_id, data_start, timing.tBL * step.bursts,
                             is_read)
            data_end = data_start + timing.tBL * step.bursts
            self.stats.reads += is_read
            self.stats.writes += not is_read
        rank.issue(step.kind, bank_id, cycle, row=row, data_end=data_end)
        if (step.virtual and step.kind is CommandType.WR and step.bursts
                and not step.window_bound):
            # Window anchor: the in-bank operation may start only after
            # the last buffer payload (offsets, then scatter data) lands.
            program.offsets_ready = max(
                program.offsets_ready, data_start + timing.tBL * step.bursts
            )
        if not step.virtual:
            if step.kind is CommandType.ACT:
                self._physical_row[key] = request.row
                self.stats.acts += 1
            elif step.kind is CommandType.PRE:
                self._physical_row[key] = None
                self.stats.pres += 1
        self._record(Command(cycle, step.kind, rank_id, bank_id,
                             row=row, column=step.column,
                             req_id=request.req_id, virtual=step.virtual,
                             data_clocks=timing.tBL * step.bursts,
                             data_start=data_start))
        program.next_step += 1
        if program.finished:
            del self._programs[key]
            # The chip no-ops the virtual PRE/ACT: the physical row
            # survives, and the controller may row-hit it afterwards.
            bank = rank.banks[bank_id]
            bank.open_row = self._physical_row.get(key, request.row)
            end = data_start + timing.tBL * step.bursts if step.bursts \
                else cycle
            request.finish_cycle = end
            self.finished.append(request)
            if request.kind is RequestType.GATHER:
                self.stats.gathers += 1
            else:
                self.stats.scatters += 1
            self.stats.total_latency += request.latency
            self.stats.finished_requests += 1

    # ------------------------------------------------------------------
    def _record(self, command: Command) -> None:
        self.trace.append(command)


class ReferenceDRAMEngine(DRAMEngine):
    """:class:`DRAMEngine` on the scalar :class:`ChannelController`."""

    def run(
        self,
        requests: list[Request],
        channels: np.ndarray | None = None,
    ) -> EngineResult:
        """Simulate to completion, one scalar step per decision."""
        per_channel = self._split_channels(requests, channels)
        controllers = [
            ChannelController(
                self.timing,
                ranks=self.config.ranks,
                channel=c,
                queue_depth=self.queue_depth,
                fim_items=self.config.fim_items_per_op,
                fim_offset_bursts=self.config.fim_offset_bursts,
                fim_data_bursts=self.config.fim_data_bursts,
                refresh_enabled=self.refresh_enabled,
            )
            for c in range(self.config.channels)
        ]
        finish = 0
        stats = EngineStats()
        for controller, queue in zip(controllers, per_channel):
            finish = max(finish, self._run_scalar_channel(controller, queue))
            self._merge_stats(stats, controller.stats)
            stats.data_bus_clocks[controller.channel] = (
                controller.bus.busy_clocks
            )
        stats.cycles = finish
        return EngineResult(
            timing=self.timing,
            cycles=finish,
            stats=stats,
            requests=requests,
            traces=[c.trace for c in controllers],
        )

    # ------------------------------------------------------------------
    def _run_scalar_channel(self, controller: ChannelController,
                            queue: list[Request]) -> int:
        """Feed one channel's requests through its controller."""
        queue = sorted(queue, key=lambda r: r.arrival)
        next_new = 0
        now = 0
        finish = 0
        while next_new < len(queue) or controller.pending:
            while (next_new < len(queue)
                    and queue[next_new].arrival <= now
                    and controller.can_accept(queue[next_new].kind)):
                controller.enqueue(queue[next_new])
                next_new += 1
            next_cycle, issued = controller.step(now)
            if issued:
                now = next_cycle
            else:
                # Idle: jump to the next request arrival or ready cycle.
                jump = next_cycle
                if next_new < len(queue):
                    jump = min(jump, max(now + 1, queue[next_new].arrival))
                if jump <= now:
                    jump = now + 1
                now = jump
            if now > MAX_CYCLES:
                raise RuntimeError("engine exceeded cycle budget")
        for request in controller.finished:
            finish = max(finish, request.finish_cycle)
        return finish
