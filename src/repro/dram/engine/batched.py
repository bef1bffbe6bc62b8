"""Per-channel DRAM command controller: FR-FCFS plus FIM sequencing.

The controller owns one channel: its rank/bank timing state, its shared
data bus, and three request queues (reads, writes, FIM operations).  It
issues at most one command per decision -- the command bus carries one
slot per clock -- chosen by a First-Ready, First-Come First-Served
policy:

1. an overdue refresh (banks are closed first),
2. the next step of an in-flight FIM virtual-row sequence,
3. a row-hit column command for the oldest matching request,
4. the preparation command (PRE/ACT) for the oldest request.

The earliest candidate cycle wins and this order breaks ties.  Row
hits rank by their earliest data-bus slot, then issue cycle, then queue
age; only the oldest queued request of a bank may prepare it, and a
preparation wins only a strictly earlier command-bus slot than the
chosen hit.  Writes are buffered and drained in batches between the
``WRITE_HI``/``WRITE_LO`` watermarks, the standard technique to
amortise bus turnarounds: the queue of the current direction is
scanned first, the other only when it offers no candidate.
Piccolo-FIM requests expand into the Sec. VI standard-command
sequence::

    gather:   [ACT x]  WR(off)          PRE   ACT   RD(data)
    scatter:  [ACT x]  WR(off) WR(data) PRE   ACT   WR(trigger)

where the PRE/ACT pair targets the virtual rows (translated to no-ops
inside the chip, so the physically open row x survives the sequence)
and supplies the ``tWR + tRP + tRCD`` window that hides the in-bank
column accesses.  The controller additionally enforces the Sec. VI
feasibility bound: the final column command may not issue before
``items x tCCD_L`` after the offsets arrive, which models the "slightly
adjusted tWR" of slower grades.

The state is columnar, following the ``FimOpBatch`` structure-of-arrays
template: per-bank timing state lives in flat ``int64`` arrays indexed
by the global bank id ``rank * banks_per_rank + bank``, request queues
are preallocated column blocks, and the FR-FCFS queue scan evaluates
every queued request's earliest legal cycle and data-bus slot in a
handful of array operations instead of a per-request Python loop.

Instead of recomputing every JEDEC window term per scan, the scheduler
maintains *floor caches* incrementally.  All cross-bank constraint
terms are monotone in issue order (commands execute at non-decreasing
cycles and every window update is a ``max``), so each issued command
folds its constraints into

* ``_floor`` -- one flat array holding, per command class, the combined
  rank/group/refresh/tFAW floor: ACT floors per (rank, group) at base
  ``0``, PRE floors per rank at base ``_P`` (the refresh wall), RD and
  WR column floors per (rank, group) at bases ``_RDB`` / ``_WRB``.  A
  queued request's earliest cycle is then just
  ``max(bank_term, _floor[findex], now)``.
* ``_prep_term`` / ``_prep_findex`` -- per bank, the precharge/activate
  preparation term and its ``_floor`` index, refreshed whenever the
  bank's ``next_act`` / ``next_pre`` change.
* ``_bus_floor_rd`` / ``_bus_floor_wr`` -- per rank, the earliest
  data-bus start (occupancy, tRTRS rank switch, direction turnaround),
  rebuilt on each reservation.
* per-program slots (``_pp_*``) -- the current FIM step's bank term and
  floor index, reloaded when the step advances or a refresh clamps the
  rank, so the program scan is a single gather-max-argmin.

The driver loop (:meth:`repro.dram.engine.engine.DRAMEngine.run`)
fast-forwards the clock: between two state changes the candidate set is
constant except where a refresh deadline (``now >= next_refresh_due``)
is crossed, so the clock jumps straight to the chosen command's cycle,
to the next admissible arrival, or to the first refresh crossing --
whichever a cycle-by-cycle walk would visit first.

``tests/reference_engine.py`` keeps the per-command scalar walk this
controller was derived from (one dict-based scan per step, every term
recomputed) as the bit-exactness oracle;
``tests/test_engine_batched_equivalence.py`` pins command streams,
stats and per-request cycles bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dram.engine.commands import (
    DATA_BUFFER_COLUMN,
    OFFSET_BUFFER_COLUMN,
    Command,
    CommandType,
    EngineStats,
    Request,
    RequestType,
)
from repro.dram.engine.timing import TimingTable

#: write-drain watermarks as fractions of the write queue capacity
WRITE_HI = 0.75
WRITE_LO = 0.25

#: an unreachable future cycle
_NEVER = 1 << 60


@dataclass
class _FimStep:
    """One command of an in-flight FIM sequence."""

    kind: CommandType
    virtual: bool
    #: data-bus bursts this step transfers (0 for ACT/PRE)
    bursts: int = 0
    #: buffer column a virtual RD/WR drives (offset vs data buffer
    #: region); None for ACT/PRE
    column: int | None = None
    #: must wait for the in-bank operation window (Sec. VI bound)
    window_bound: bool = False


@dataclass
class _FimProgram:
    """Decomposed FIM request plus its progress."""

    request: Request
    steps: list[_FimStep]
    next_step: int = 0
    #: cycle the offset-buffer write data completes (window anchor)
    offsets_ready: int = -1

    @property
    def current(self) -> _FimStep:
        """The next step awaiting issue."""
        return self.steps[self.next_step]

    @property
    def finished(self) -> bool:
        """Whether every step has issued."""
        return self.next_step >= len(self.steps)


_QCOLS = ("gkey", "rank", "bank", "rg", "row", "arrival", "frd", "fwr")


class _QueueColumns:
    """One request queue as parallel columns plus the Request objects."""

    gkey: np.ndarray
    rank: np.ndarray
    bank: np.ndarray
    rg: np.ndarray
    row: np.ndarray
    arrival: np.ndarray
    frd: np.ndarray
    fwr: np.ndarray
    requests: list[Request]

    __slots__ = _QCOLS + ("requests",)

    def __init__(self, capacity: int) -> None:
        for name in _QCOLS:
            setattr(self, name, np.zeros(capacity, dtype=np.int64))
        self.requests: list[Request] = []

    @property
    def n(self) -> int:
        return len(self.requests)

    def append(self, request: Request, gkey: int, rg: int,
               frd: int, fwr: int) -> None:
        i = len(self.requests)
        self.gkey[i] = gkey
        self.rank[i] = request.rank
        self.bank[i] = request.bank
        self.rg[i] = rg
        self.row[i] = request.row
        self.arrival[i] = request.arrival
        self.frd[i] = frd
        self.fwr[i] = fwr
        self.requests.append(request)

    def pop(self, index: int) -> Request:
        n = len(self.requests)
        if index < n - 1:
            for name in _QCOLS:
                col = getattr(self, name)
                col[index:n - 1] = col[index + 1:n]
        return self.requests.pop(index)


class BatchedChannelController:
    """One channel's scheduler on columnar state.

    Drive with :meth:`next_action` / :meth:`execute`; the split is what
    lets the engine loop fast-forward past idle stretches without
    rescanning.
    """

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
        self.n_ranks = ranks
        bpr = timing.banks_per_rank
        groups = timing.bank_groups
        self._bpr = bpr
        self._bpg = timing.banks_per_group
        self._groups = groups
        n_banks = ranks * bpr
        self._n_banks = n_banks
        # Per-bank timing state (open_row: -1 = precharged).
        self._open_row = np.full(n_banks, -1, dtype=np.int64)
        self._next_act = np.zeros(n_banks, dtype=np.int64)
        self._next_pre = np.zeros(n_banks, dtype=np.int64)
        self._next_rd = np.zeros(n_banks, dtype=np.int64)
        self._next_wr = np.zeros(n_banks, dtype=np.int64)
        # Physically open row across FIM virtual sequences, in three
        # states: unset (follow open_row) / precharged (-1) / row.
        self._phys_set = np.zeros(n_banks, dtype=bool)
        self._phys_row = np.full(n_banks, -1, dtype=np.int64)
        self._prog_active = np.zeros(n_banks, dtype=bool)
        # Combined class floors: [ACT per rg | PRE per rank | RD per rg
        # | WR per rg].  Zero-init is exact: refresh_until starts at 0
        # and dominates every _PAST-seeded window term.
        n_rg = ranks * groups
        self._P = n_rg
        self._RDB = n_rg + ranks
        self._WRB = 2 * n_rg + ranks
        self._floor = np.zeros(3 * n_rg + ranks, dtype=np.int64)
        self._act_sl = [slice(r * groups, (r + 1) * groups)
                        for r in range(ranks)]
        self._rd_sl = [slice(self._RDB + r * groups,
                             self._RDB + (r + 1) * groups)
                       for r in range(ranks)]
        self._wr_sl = [slice(self._WRB + r * groups,
                             self._WRB + (r + 1) * groups)
                       for r in range(ranks)]
        self._bank_rank_l = [g // bpr for g in range(n_banks)]
        self._bank_rg_l = [(g // bpr) * groups + (g % bpr) // self._bpg
                           for g in range(n_banks)]
        # Preparation candidates per bank: closed banks activate
        # (term=next_act, floor=ACT class), open banks precharge
        # (term=next_pre, floor=PRE class).  All banks start closed.
        self._prep_term = np.zeros(n_banks, dtype=np.int64)
        self._prep_findex = np.array(self._bank_rg_l, dtype=np.int64)
        # Refresh bookkeeping (rank-major 2D views share the buffers).
        self._refresh_until = np.zeros(ranks, dtype=np.int64)
        self._next_refresh_due = np.full(ranks, timing.tREFI,
                                         dtype=np.int64)
        self._min_due = timing.tREFI
        self._rank_idx = np.arange(ranks, dtype=np.int64)
        self._open_2d = self._open_row.reshape(ranks, bpr)
        self._prog_2d = self._prog_active.reshape(ranks, bpr)
        self._next_pre_2d = self._next_pre.reshape(ranks, bpr)
        self._next_act_2d = self._next_act.reshape(ranks, bpr)
        # tFAW: circular 4-slot ACT window per rank (plain Python).
        self._faw_win = [[0, 0, 0, 0] for _ in range(ranks)]
        self._faw_pos = [0] * ranks
        self._faw_len = [0] * ranks
        # Shared data bus (scalar state; one transfer at a time) plus
        # the per-rank earliest-start floors it implies.
        self._bus_busy_until = 0
        self.bus_busy_clocks = 0
        self._bus_floor_rd = np.zeros(ranks, dtype=np.int64)
        self._bus_floor_wr = np.ones(ranks, dtype=np.int64)
        # Queues and in-flight FIM programs.  Program slots stay in
        # insertion order (retirement shifts the tail down) so a plain
        # argmin over cached step terms breaks ties oldest-first.
        self._read = _QueueColumns(queue_depth)
        self._write = _QueueColumns(queue_depth)
        self._fim = _QueueColumns(queue_depth)
        self._programs: dict[int, _FimProgram] = {}
        self._prog_slot: dict[int, int] = {}
        self._pp_g = np.zeros(n_banks, dtype=np.int64)
        self._pp_term = np.zeros(n_banks, dtype=np.int64)
        self._pp_findex = np.zeros(n_banks, dtype=np.int64)
        self._pp_n = 0
        self._step_templates: dict[tuple, list[_FimStep]] = {}
        # The startable-FIM scan result is stable until the FIM queue
        # or the program set changes.
        self._fim_scan: tuple[int, int] | None = None
        self._fim_scan_dirty = True
        self._write_mode = False
        self._wm_hi = max(1, int(queue_depth * WRITE_HI))
        self._wm_lo = max(0, int(queue_depth * WRITE_LO))
        self._iota = np.arange(queue_depth, dtype=np.int64)
        self._first_scratch = np.zeros(n_banks + 1, dtype=np.int64)
        self.trace: list[Command] = []
        self.stats = EngineStats()
        self.finished: list[Request] = []

    # ------------------------------------------------------------------
    # Queue admission
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        """Admit one request (caller respects :meth:`can_accept`)."""
        gkey = request.rank * self._bpr + request.bank
        rg = request.rank * self._groups + request.bank // self._bpg
        frd = self._RDB + rg
        fwr = self._WRB + rg
        if request.kind is RequestType.READ:
            self._read.append(request, gkey, rg, frd, fwr)
        elif request.kind is RequestType.WRITE:
            self._write.append(request, gkey, rg, frd, fwr)
        else:
            self._fim.append(request, gkey, rg, frd, fwr)
            self._fim_scan_dirty = True

    def can_accept(self, kind: RequestType) -> bool:
        """Whether the queue for ``kind`` has room."""
        if kind is RequestType.READ:
            return self._read.n < self.queue_depth
        if kind is RequestType.WRITE:
            return self._write.n < self.queue_depth
        return self._fim.n < self.queue_depth

    @property
    def pending(self) -> int:
        """Outstanding work: queued requests plus in-flight programs."""
        return (self._read.n + self._write.n + self._fim.n
                + len(self._programs))

    # ------------------------------------------------------------------
    # Scheduling: pick the FR-FCFS winning candidate
    # ------------------------------------------------------------------
    def next_action(self, now: int) -> tuple[int, object | None]:
        """The winning candidate command at ``now``.

        Returns ``(cycle, action)``; ``action is None`` means no
        candidate exists and ``cycle`` is the idle deadline (the next
        refresh due, or ``_NEVER``).
        """
        best_cycle = _NEVER
        best_prio = 9
        best_action: object | None = None

        if self.refresh_enabled and now >= self._min_due:
            got = self._best_refresh(now)
            if got is not None:
                best_cycle, best_prio, best_action = got[0], 0, got[1]

        if self._programs:
            cycle, g = self._best_program(now)
            if (cycle, 1) < (best_cycle, best_prio):
                best_cycle, best_prio, best_action = cycle, 1, ("fim", g)

        startable = self._next_startable_fim()
        if startable is not None:
            fim_index, arrival = startable
            cycle = now if now > arrival else arrival
            if (cycle, 2) < (best_cycle, best_prio):
                best_cycle, best_prio, best_action = \
                    cycle, 2, ("fim_start", fim_index)

        # With both regular queues empty the write-mode hysteresis is a
        # no-op and there is no regular candidate: skip the whole path.
        if self._read.requests or self._write.requests:
            self._update_write_mode()
            preferred = self._write if self._write_mode else self._read
            other = self._read if self._write_mode else self._write
            got = self._best_regular(preferred, now)
            if got is not None:
                cycle, action = got
                if (cycle, 3) < (best_cycle, best_prio):
                    best_cycle, best_prio, best_action = cycle, 3, action
            else:
                got = self._best_regular(other, now)
                if got is not None:
                    cycle, action = got
                    if (cycle, 4) < (best_cycle, best_prio):
                        best_cycle, best_prio, best_action = \
                            cycle, 4, action

        if best_action is None:
            due = self._min_due if self.refresh_enabled else _NEVER
            return due, None
        return best_cycle, best_action

    def next_refresh_crossing(self, now: int, cycle: int) -> int | None:
        """First refresh deadline in ``(now, cycle]``, if any.

        Crossing one changes the candidate set (the
        ``now >= next_refresh_due`` trigger is the only now-dependent
        condition between state changes), so the driver must rescan
        there instead of jumping straight to ``cycle``.
        """
        if not self.refresh_enabled or self._min_due > cycle:
            return None
        due = self._next_refresh_due
        mask = (due > now) & (due <= cycle)
        if not mask.any():
            return None
        return int(due[mask].min())

    # ------------------------------------------------------------------
    def _update_write_mode(self) -> None:
        if self._write_mode:
            if self._write.n <= self._wm_lo and self._read.n:
                self._write_mode = False
        else:
            if (self._write.n >= self._wm_hi
                    or (not self._read.n and self._write.n)):
                self._write_mode = True

    def _next_startable_fim(self) -> tuple[int, int] | None:
        """Oldest queued FIM request whose bank has no active program.

        Returns ``(queue_index, arrival)``; cached between calls, since
        the answer only moves when the FIM queue or program set does.
        """
        if not self._fim_scan_dirty:
            return self._fim_scan
        self._fim_scan_dirty = False
        n = self._fim.n
        got = None
        if n:
            if not self._programs:
                got = (0, int(self._fim.arrival[0]))
            else:
                free = ~self._prog_active[self._fim.gkey[:n]]
                if free.any():
                    i = int(np.argmax(free))
                    got = (i, int(self._fim.arrival[i]))
        self._fim_scan = got
        return got

    # ------------------------------------------------------------------
    # Regular read/write service (the vectorized FR-FCFS scan)
    # ------------------------------------------------------------------
    def _best_regular(self, q: _QueueColumns,
                      now: int) -> tuple[int, object] | None:
        n = q.n
        if n == 0:
            return None
        key = q.gkey[:n]
        if self._programs:
            valid = ~self._prog_active[key]
            if not valid.any():
                return None
        else:
            valid = None
        hit = self._open_row[key] == q.row[:n]
        if valid is not None:
            hit &= valid
        F = self._floor

        best_col: tuple[int, int, int] | None = None
        if hit.any():
            if q is self._read:
                base = self._next_rd[key]
                fidx = q.frd[:n]
                lead = self.timing.tCL
                busfloor = self._bus_floor_rd
            else:
                base = self._next_wr[key]
                fidx = q.fwr[:n]
                lead = self.timing.tCWL
                busfloor = self._bus_floor_wr
            cyc = np.maximum(base, F[fidx])
            np.maximum(cyc, now, out=cyc)
            # Rank hits by their earliest data-bus slot (DataBus rules:
            # occupancy, rank switch tRTRS, direction turnaround).
            data = cyc + lead
            if self.n_ranks == 1:
                np.maximum(data, busfloor.item(0), out=data)
            else:
                np.maximum(data, busfloor[q.rank[:n]], out=data)
            data_m = np.where(hit, data, _NEVER)
            dmin = int(data_m.min())
            tie = np.where(data_m == dmin, cyc, _NEVER)
            cmin = int(tie.min())
            ci = int(np.argmax(tie == cmin))
            if cmin <= now:
                # The hit issues immediately; preparations are clamped
                # to now too and only win on strictly-earlier cycles,
                # so none can -- skip the prep scan entirely.
                return cmin, ("column", q, ci)
            best_col = (dmin, cmin, ci)

        # Preparation candidates: the first queued request of each
        # program-free bank whose head request is not a row hit.
        idx = self._iota[:n]
        if valid is not None:
            k2 = np.where(valid, key, self._n_banks)
        else:
            k2 = key
        scratch = self._first_scratch
        scratch[k2[::-1]] = idx[::-1]
        pmask = (scratch[k2] == idx) & ~hit
        if valid is not None:
            pmask &= valid
        best_prep: tuple[int, int] | None = None
        if pmask.any():
            pterm = np.maximum(self._prep_term[key],
                               F[self._prep_findex[key]])
            np.maximum(pterm, now, out=pterm)
            pm = np.where(pmask, pterm, _NEVER)
            pmin = int(pm.min())
            best_prep = (pmin, int(np.argmax(pm == pmin)))

        if best_col is None and best_prep is None:
            return None
        if best_col is not None and (best_prep is None
                                     or best_prep[0] >= best_col[1]):
            return best_col[1], ("column", q, best_col[2])
        cycle, index = best_prep
        tag = "act" if int(self._open_row[int(key[index])]) == -1 else "pre"
        return cycle, (tag, q, index)

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def _best_refresh(self, now: int) -> tuple[int, object] | None:
        """Best refresh-path candidate across all due ranks.

        Per rank: precharge the first open program-free bank, or the
        REF itself once every bank is closed; a rank whose remaining
        open banks are all program-owned contributes nothing (a finite
        prio-1 program candidate then exists and always outranks it).
        Rank order breaks cycle ties.
        """
        open2 = self._open_2d != -1
        closable = open2 & ~self._prog_2d
        has_closable = closable.any(axis=1)
        has_open = open2.any(axis=1)
        first_b = np.argmax(closable, axis=1)
        pre_c = np.maximum(self._next_pre_2d[self._rank_idx, first_b],
                           self._refresh_until)
        np.maximum(pre_c, now, out=pre_c)
        due = self._next_refresh_due
        ref_c = np.maximum(self._refresh_until, due)
        np.maximum(ref_c, self._next_act_2d.max(axis=1), out=ref_c)
        np.maximum(ref_c, now, out=ref_c)
        cyc = np.where(has_closable, pre_c,
                       np.where(has_open, _NEVER, ref_c))
        cyc = np.where(due <= now, cyc, _NEVER)
        m = int(cyc.min())
        if m >= _NEVER:
            return None
        r = int(np.argmin(cyc))
        if has_closable[r]:
            return m, ("pre_for_ref", r, int(first_b[r]))
        return m, ("refresh", r)

    # ------------------------------------------------------------------
    # FIM sequencing
    # ------------------------------------------------------------------
    def _best_program(self, now: int) -> tuple[int, int]:
        """Earliest in-flight FIM step; insertion order breaks ties."""
        F = self._floor
        K = self._pp_n
        if K == 1:
            e = self._pp_term.item(0)
            f = F.item(self._pp_findex.item(0))
            if f > e:
                e = f
            if now > e:
                e = now
            return e, self._pp_g.item(0)
        e = np.maximum(self._pp_term[:K], F[self._pp_findex[:K]])
        np.maximum(e, now, out=e)
        # argmin returns the first minimum: the oldest program.
        slot = int(np.argmin(e))
        return int(e[slot]), self._pp_g.item(slot)

    def _load_program_step(self, g: int, program: _FimProgram) -> None:
        """Cache the current step's bank term and class-floor index.

        Valid until the step issues: the bank is program-owned, so only
        this program's own commands and a rank REF (which reloads every
        same-rank slot) can move its terms; ``offsets_ready`` is final
        before any window-bound step becomes current.
        """
        step = program.current
        kind = step.kind
        if kind is CommandType.ACT:
            term = int(self._next_act[g])
            findex = self._bank_rg_l[g]
        elif kind is CommandType.PRE:
            term = int(self._next_pre[g])
            findex = self._P + self._bank_rank_l[g]
        elif kind is CommandType.RD:
            term = int(self._next_rd[g])
            findex = self._RDB + self._bank_rg_l[g]
        else:
            term = int(self._next_wr[g])
            findex = self._WRB + self._bank_rg_l[g]
        if step.window_bound and program.offsets_ready >= 0:
            bound = (program.offsets_ready
                     + self.fim_items * self.timing.tCCD_L)
            if bound > term:
                term = bound
        slot = self._prog_slot[g]
        self._pp_term[slot] = term
        self._pp_findex[slot] = findex

    def _fim_steps(self, needs_prefix: bool, was_open: bool,
                   scatter: bool) -> list[_FimStep]:
        """Shared, immutable step list for one FIM sequence shape."""
        key = (needs_prefix, was_open, scatter)
        cached = self._step_templates.get(key)
        if cached is not None:
            return cached
        steps: list[_FimStep] = []
        if needs_prefix:
            if was_open:
                steps.append(_FimStep(CommandType.PRE, virtual=False))
            steps.append(_FimStep(CommandType.ACT, virtual=False))
        for _ in range(self.fim_offset_bursts):
            steps.append(_FimStep(CommandType.WR, virtual=True, bursts=1,
                                  column=OFFSET_BUFFER_COLUMN))
        if scatter:
            for _ in range(self.fim_data_bursts):
                steps.append(_FimStep(CommandType.WR, virtual=True,
                                      bursts=1, column=DATA_BUFFER_COLUMN))
        steps.append(_FimStep(CommandType.PRE, virtual=True))
        steps.append(_FimStep(CommandType.ACT, virtual=True))
        if scatter:
            steps.append(_FimStep(CommandType.WR, virtual=True, bursts=1,
                                  column=OFFSET_BUFFER_COLUMN,
                                  window_bound=True))
        else:
            for _ in range(self.fim_data_bursts):
                steps.append(_FimStep(CommandType.RD, virtual=True,
                                      bursts=1, column=DATA_BUFFER_COLUMN,
                                      window_bound=True))
        self._step_templates[key] = steps
        return steps

    def _start_fim(self, index: int) -> None:
        request = self._fim.pop(index)
        self._fim_scan_dirty = True
        g = request.rank * self._bpr + request.bank
        open_row = int(self._open_row[g])
        physical = int(self._phys_row[g]) if self._phys_set[g] else open_row
        # The Sec. VI decomposition: a physical PRE/ACT prefix only when
        # the target row is not already open (-1: nothing open).
        steps = self._fim_steps(physical != request.row, open_row != -1,
                                request.kind is RequestType.SCATTER)
        program = _FimProgram(request=request, steps=steps)
        self._programs[g] = program
        self._prog_active[g] = True
        slot = self._pp_n
        self._prog_slot[g] = slot
        self._pp_g[slot] = g
        self._pp_n = slot + 1
        self._load_program_step(g, program)

    def _finish_program(self, g: int, request: Request) -> None:
        """Retire a program: free the bank and compact the slot table."""
        del self._programs[g]
        self._prog_active[g] = False
        self._fim_scan_dirty = True
        # The chip no-ops the virtual PRE/ACT: the physical row
        # survives the sequence.
        row = self._phys_row[g] if self._phys_set[g] else request.row
        self._open_row[g] = row
        if row == -1:
            self._prep_term[g] = self._next_act[g]
            self._prep_findex[g] = self._bank_rg_l[g]
        else:
            self._prep_term[g] = self._next_pre[g]
            self._prep_findex[g] = self._P + self._bank_rank_l[g]
        slot = self._prog_slot.pop(g)
        last = self._pp_n - 1
        if slot != last:
            # Shift the tail down to preserve insertion order.
            for arr in (self._pp_g, self._pp_term, self._pp_findex):
                arr[slot:last] = arr[slot + 1:last + 1]
            # repro-lint: disable=RL006 -- slot-index fixup over the pending
            # program map, bounded by the FIM program-slot cap, not requests
            for key in self._prog_slot:
                if self._prog_slot[key] > slot:
                    self._prog_slot[key] -= 1
        self._pp_n = last

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def execute(self, action: Any, cycle: int) -> None:
        tag = action[0]
        if tag == "column":
            _, q, index = action
            self._issue_column(q.pop(index), cycle)
            return
        if tag == "fim":
            self._issue_fim_step(action[1], cycle)
            return
        if tag == "act":
            _, q, index = action
            request = q.requests[index]
            g = int(q.gkey[index])
            rg = int(q.rg[index])
            self._issue_act(g, request.rank, rg, cycle, request.row)
            self._phys_set[g] = True
            self._phys_row[g] = request.row
            self.trace.append(Command(cycle, CommandType.ACT, request.rank,
                                      request.bank, row=request.row,
                                      req_id=request.req_id))
            self.stats.acts += 1
            return
        if tag in ("pre", "pre_for_ref"):
            if tag == "pre":
                _, q, index = action
                rank = int(q.rank[index])
                bank = int(q.bank[index])
                g = int(q.gkey[index])
            else:
                _, rank, bank = action
                g = rank * self._bpr + bank
            self._issue_pre(g, cycle)
            self._phys_set[g] = True
            self._phys_row[g] = -1
            self.trace.append(Command(cycle, CommandType.PRE, rank, bank))
            self.stats.pres += 1
            return
        if tag == "fim_start":
            self._start_fim(action[1])
            return
        if tag == "refresh":
            rank = action[1]
            self._issue_ref(rank, cycle)
            self.trace.append(Command(cycle, CommandType.REF, rank, 0))
            self.stats.refreshes += 1
            return
        raise ValueError(f"unknown action {tag!r}")

    def _issue_column(self, request: Request, cycle: int) -> None:
        t = self.timing
        is_read = request.kind is RequestType.READ
        lead = t.tCL if is_read else t.tCWL
        start = self._bus_earliest(request.rank, cycle + lead, is_read)
        self._bus_reserve(request.rank, start, t.tBL, is_read)
        g = request.rank * self._bpr + request.bank
        rg = self._bank_rg_l[g]
        if is_read:
            self._issue_rd(g, request.rank, rg, cycle, start + t.tBL)
        else:
            self._issue_wr(g, request.rank, rg, cycle, start + t.tBL)
        if request.issue_cycle < 0:
            request.issue_cycle = cycle
        request.finish_cycle = start + t.tBL
        self.finished.append(request)
        self.stats.reads += is_read
        self.stats.writes += not is_read
        self.stats.total_latency += request.latency
        self.stats.finished_requests += 1
        self.trace.append(Command(
            cycle, CommandType.RD if is_read else CommandType.WR,
            request.rank, request.bank, row=request.row,
            column=request.column, req_id=request.req_id,
            data_clocks=t.tBL, data_start=start,
        ))

    def _issue_fim_step(self, g: int, cycle: int) -> None:
        program = self._programs[g]
        request = program.request
        step = program.current
        t = self.timing
        rank = self._bank_rank_l[g]
        bank = g - rank * self._bpr
        rg = self._bank_rg_l[g]
        is_act = step.kind is CommandType.ACT
        if request.issue_cycle < 0:
            request.issue_cycle = cycle
        data_start = 0
        data_end = None
        if step.bursts:
            is_read = step.kind is CommandType.RD
            lead = t.tCL if is_read else t.tCWL
            data_start = self._bus_earliest(rank, cycle + lead, is_read)
            self._bus_reserve(rank, data_start, t.tBL * step.bursts,
                              is_read)
            data_end = data_start + t.tBL * step.bursts
            self.stats.reads += is_read
            self.stats.writes += not is_read
        if is_act:
            self._issue_act(g, rank, rg, cycle, request.row)
        elif step.kind is CommandType.PRE:
            self._issue_pre(g, cycle)
        elif step.kind is CommandType.RD:
            self._issue_rd(g, rank, rg, cycle, data_end)
        else:
            self._issue_wr(g, rank, rg, cycle, data_end)
        if (step.virtual and step.kind is CommandType.WR and step.bursts
                and not step.window_bound):
            program.offsets_ready = max(
                program.offsets_ready, data_start + t.tBL * step.bursts
            )
        if not step.virtual:
            if is_act:
                self._phys_set[g] = True
                self._phys_row[g] = request.row
                self.stats.acts += 1
            elif step.kind is CommandType.PRE:
                self._phys_set[g] = True
                self._phys_row[g] = -1
                self.stats.pres += 1
        self.trace.append(Command(
            cycle, step.kind, rank, bank,
            row=request.row if is_act else None,
            column=step.column, req_id=request.req_id,
            virtual=step.virtual, data_clocks=t.tBL * step.bursts,
            data_start=data_start,
        ))
        program.next_step += 1
        if program.finished:
            self._finish_program(g, request)
            end = data_start + t.tBL * step.bursts if step.bursts else cycle
            request.finish_cycle = end
            self.finished.append(request)
            if request.kind is RequestType.GATHER:
                self.stats.gathers += 1
            else:
                self.stats.scatters += 1
            self.stats.total_latency += request.latency
            self.stats.finished_requests += 1
        else:
            self._load_program_step(g, program)

    # ------------------------------------------------------------------
    # State updates (each command's JEDEC windows: per-bank terms, plus
    # its cross-bank constraints folded into the class floors)
    # ------------------------------------------------------------------
    def _issue_act(self, g: int, rank: int, rg: int, cycle: int,
                   row: int) -> None:
        t = self.timing
        self._open_row[g] = row
        self._next_act[g] = cycle + t.tRC
        self._next_pre[g] = cycle + t.tRAS
        self._next_rd[g] = cycle + t.tRCD
        self._next_wr[g] = cycle + t.tRCD
        self._prep_term[g] = cycle + t.tRAS
        self._prep_findex[g] = self._P + rank
        win = self._faw_win[rank]
        pos = self._faw_pos[rank]
        win[pos] = cycle
        pos = (pos + 1) & 3
        self._faw_pos[rank] = pos
        if self._faw_len[rank] < 4:
            self._faw_len[rank] += 1
        v = cycle + t.tRRD_S
        if self._faw_len[rank] == 4:
            faw = win[pos] + t.tFAW
            if faw > v:
                v = faw
        F = self._floor
        sl = self._act_sl[rank]
        np.maximum(F[sl], v, out=F[sl])
        w = cycle + t.tRRD_L
        if w > F[rg]:
            F[rg] = w

    def _issue_pre(self, g: int, cycle: int) -> None:
        self._open_row[g] = -1
        floor = cycle + self.timing.tRP
        if floor > self._next_act[g]:
            self._next_act[g] = floor
        self._prep_term[g] = self._next_act[g]
        self._prep_findex[g] = self._bank_rg_l[g]

    def _issue_rd(self, g: int, rank: int, rg: int, cycle: int,
                  data_end: int | None) -> None:
        t = self.timing
        if data_end is None:
            data_end = cycle + t.tCL + t.tBL
        F = self._floor
        v = cycle + t.tCCD_S
        sl = self._rd_sl[rank]
        np.maximum(F[sl], v, out=F[sl])
        w = cycle + t.tCCD_L
        i = self._RDB + rg
        if w > F[i]:
            F[i] = w
        sl = self._wr_sl[rank]
        vw = data_end + 1
        np.maximum(F[sl], vw if vw > v else v, out=F[sl])
        i = self._WRB + rg
        if w > F[i]:
            F[i] = w
        floor = cycle + t.tRTP
        if floor > self._next_pre[g]:
            self._next_pre[g] = floor
        self._prep_term[g] = self._next_pre[g]

    def _issue_wr(self, g: int, rank: int, rg: int, cycle: int,
                  data_end: int | None) -> None:
        t = self.timing
        if data_end is None:
            data_end = cycle + t.tCWL + t.tBL
        F = self._floor
        v = cycle + t.tCCD_S
        w = cycle + t.tCCD_L
        sl = self._rd_sl[rank]
        vr = data_end + t.tWTR_S
        np.maximum(F[sl], vr if vr > v else v, out=F[sl])
        i = self._RDB + rg
        wr = data_end + t.tWTR_L
        if wr < w:
            wr = w
        if wr > F[i]:
            F[i] = wr
        sl = self._wr_sl[rank]
        np.maximum(F[sl], v, out=F[sl])
        i = self._WRB + rg
        if w > F[i]:
            F[i] = w
        floor = data_end + t.tWR
        if floor > self._next_pre[g]:
            self._next_pre[g] = floor
        self._prep_term[g] = self._next_pre[g]

    def _issue_ref(self, rank: int, cycle: int) -> None:
        t = self.timing
        until = cycle + t.tRFC
        self._refresh_until[rank] = until
        self._next_refresh_due[rank] += t.tREFI
        self._min_due = int(self._next_refresh_due.min())
        sl = slice(rank * self._bpr, (rank + 1) * self._bpr)
        np.maximum(self._next_act[sl], until, out=self._next_act[sl])
        # Every bank of the rank is closed at REF, so each prep term is
        # its next_act -- clamp them in lockstep.
        np.maximum(self._prep_term[sl], until, out=self._prep_term[sl])
        F = self._floor
        for s in (self._act_sl[rank], self._rd_sl[rank],
                  self._wr_sl[rank]):
            np.maximum(F[s], until, out=F[s])
        i = self._P + rank
        if until > F[i]:
            F[i] = until
        # Same-rank program steps cached a pre-REF next_act: reload.
        # repro-lint: disable=RL006 -- bounded by the FIM program-slot cap
        for slot in range(self._pp_n):
            g = self._pp_g.item(slot)
            if self._bank_rank_l[g] == rank:
                self._load_program_step(g, self._programs[g])

    def _bus_earliest(self, rank: int, want: int, is_read: bool) -> int:
        floors = self._bus_floor_rd if is_read else self._bus_floor_wr
        floor = int(floors[rank])
        return want if want > floor else floor

    def _bus_reserve(self, rank: int, start: int, clocks: int,
                     is_read: bool) -> None:
        if start < self._bus_busy_until:
            raise ValueError("data bus double-booked")
        busy = start + clocks
        self._bus_busy_until = busy
        self.bus_busy_clocks += clocks
        # Rebuild the per-rank start floors: occupancy, tRTRS on a rank
        # switch, one-clock direction turnaround.
        pen_rd = 0 if is_read else 1
        pen_wr = 1 - pen_rd
        frd = self._bus_floor_rd
        fwr = self._bus_floor_wr
        if self.n_ranks == 1:
            frd[0] = busy + pen_rd
            fwr[0] = busy + pen_wr
            return
        trtrs = self.timing.tRTRS
        frd.fill(busy + (trtrs if trtrs > pen_rd else pen_rd))
        frd[rank] = busy + pen_rd
        fwr.fill(busy + (trtrs if trtrs > pen_wr else pen_wr))
        fwr[rank] = busy + pen_wr
