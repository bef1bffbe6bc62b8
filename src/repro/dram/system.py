"""Command-level DRAM timing: row episodes, bus occupancy, FIM operations.

Model
-----
A *phase* is a batch of memory work generated by one accelerator pipeline
stage (e.g. one tile's reduce pass).  The accelerator overlaps compute and
memory aggressively via prefetching (Sec. II-B), so a phase's duration is
the binding memory resource:

    T_phase = max( max_bank busy time,          -- activation/column time
                   max_channel data-bus time,   -- off-chip bandwidth
                   max_rank internal-bus time,  -- NMP rank-level gathers
                   latency floor )

Per-bank busy time is computed from *row episodes*: maximal runs of
requests to the same (bank, row) in service order.  An episode costs

    max(tRAS, tRCD + sum of per-op column costs) + tRP

which enforces tRC between activations of a bank.  A windowed row-hit-first
reorder approximates FR-FCFS: within a scheduler window, requests to the
same bank and row are served back-to-back.

Piccolo-FIM operations (Sec. IV/VI) occupy their bank for the virtual-row
window ``tWR + tRP + tRCD`` (which hides the eight internal column
accesses) plus the offset/data bursts, but only move
``offset_bursts + data_bursts`` bursts on the off-chip bus instead of
eight -- the 4x bandwidth gain.  NMP-style rank-level gathers save the
same off-chip bursts but serialise their internal reads on the rank's
shared data path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.address import AddressMapper
from repro.dram.fim_batch import FimOpBatch
from repro.dram.spec import DRAMConfig
from repro.utils.units import ceil_div

#: FR-FCFS approximation: requests within this window may be reordered to
#: hit an open row (per Sec. VII-A the baselines are tuned favourably).
DEFAULT_SCHEDULER_WINDOW = 32


@dataclass
class PhaseStats:
    """Physical activity and duration of one phase."""

    time_ns: float = 0.0
    #: off-chip data-bus busy time, summed over channels
    bus_busy_ns: float = 0.0
    acts: int = 0
    #: off-chip bursts by direction (includes FIM offset/data bursts)
    read_bursts: int = 0
    write_bursts: int = 0
    #: bursts that carried FIM offsets (energy accounting, Fig. 14)
    fim_offset_bursts: int = 0
    fim_gathers: int = 0
    fim_scatters: int = 0
    #: 8-byte words moved inside DRAM (FIM/NMP internal column accesses,
    #: PIM internal traffic), for the internal-bandwidth series of Fig. 13
    internal_words: int = 0

    @property
    def read_bytes(self) -> int:
        return self.read_bursts * self._burst_bytes

    @property
    def write_bytes(self) -> int:
        return self.write_bursts * self._burst_bytes

    _burst_bytes: int = field(default=64, repr=False)

    def merge(self, other: "PhaseStats") -> None:
        """Accumulate ``other``, a phase that ran after this one."""
        self.time_ns += other.time_ns
        self.bus_busy_ns += other.bus_busy_ns
        self.acts += other.acts
        self.read_bursts += other.read_bursts
        self.write_bursts += other.write_bursts
        self.fim_offset_bursts += other.fim_offset_bursts
        self.fim_gathers += other.fim_gathers
        self.fim_scatters += other.fim_scatters
        self.internal_words += other.internal_words


class DRAMModel:
    """Phase evaluator for a configured memory system."""

    def __init__(
        self,
        config: DRAMConfig,
        scheduler_window: int = DEFAULT_SCHEDULER_WINDOW,
    ) -> None:
        if scheduler_window < 1:
            raise ValueError("scheduler_window must be >= 1")
        self.config = config
        self.spec = config.spec
        self.mapper = AddressMapper(config)
        self.scheduler_window = scheduler_window
        spec = self.spec
        self._col_cost = max(spec.tCCD, spec.tBURST)
        # Per-op bank occupancy of one FIM sequence.  JEDEC write
        # recovery runs from the *end* of the offset-write data, so the
        # bank is busy for the CAS lead-in, the buffer bursts, the
        # tWR + tRP + tRCD window that hides the internal op, and the
        # CAS lead-out of the data-buffer access -- the cadence the
        # command-level engine (repro.dram.engine) replays exactly.
        self._fim_bank_cost = (
            2 * spec.tCL
            + spec.fim_internal_window
            + (config.fim_offset_bursts + config.fim_data_bursts) * spec.tBURST
        )

    # ------------------------------------------------------------------
    def latency_ns(self) -> float:
        """Idle-bank random read latency (no-prefetch stall estimate)."""
        spec = self.spec
        return spec.tRCD + spec.tCL + spec.tBURST

    # ------------------------------------------------------------------
    def phase(
        self,
        addrs: np.ndarray | None = None,
        is_write: np.ndarray | None = None,
        fim_ops: FimOpBatch | None = None,
        stream_read_bytes: float = 0.0,
        stream_write_bytes: float = 0.0,
        loose_read_bursts: int = 0,
    ) -> PhaseStats:
        """Evaluate one phase of memory work handed over in one piece.

        Opens a :class:`PhaseAccumulator`, adds the request arguments in
        one :meth:`~PhaseAccumulator.add` and returns
        :meth:`~PhaseAccumulator.close` of the stream bytes; the argument
        meanings are documented there.
        """
        acc = self.open_phase()
        acc.add(
            addrs=addrs,
            is_write=is_write,
            fim_ops=fim_ops,
            loose_read_bursts=loose_read_bursts,
        )
        return acc.close(
            stream_read_bytes=stream_read_bytes,
            stream_write_bytes=stream_write_bytes,
        )

    # ------------------------------------------------------------------
    def open_phase(self) -> "PhaseAccumulator":
        """Begin a phase evaluation fed in any number of chunks.

        ``acc = model.open_phase(); acc.add(...); ...; acc.close(...)``
        holds only O(chunk + scheduler window) temporaries, and its
        :class:`PhaseStats` do not depend on where the chunk boundaries
        fall (see :class:`PhaseAccumulator`).
        """
        return PhaseAccumulator(self)

    # ------------------------------------------------------------------
    def _fim_charge(
        self,
        batch: FimOpBatch,
        bus_busy: np.ndarray,
        rank_busy: np.ndarray,
        stats: PhaseStats,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Charge a FIM-op batch's bus/rank occupancy and counters
        (vectorized, arrival order); returns the (bank, row, cost)
        columns for episode accumulation."""
        spec = self.spec
        config = self.config
        channel, rank, bank, row, items, is_scatter, rank_level = (
            batch.columns()
        )
        n = channel.size
        cost = np.full(n, self._fim_bank_cost, dtype=np.float64)
        rl = np.flatnonzero(rank_level)
        if rl.size:
            # NMP: the buffer-chip engine runs one gather at a time per
            # rank, and -- lacking Piccolo's row confinement -- its
            # internal reads walk arbitrary rows, so each operation
            # holds the engine for an activate + items column reads +
            # precharge worth of time (Sec. VII-C: rank-level internal
            # bandwidth only, no deterministic in-row latency).
            internal = items[rl] * self._col_cost
            cost[rl] = internal
            np.add.at(
                rank_busy,
                channel[rl] * config.ranks + rank[rl],
                spec.tRCD + internal + spec.tRP,
            )
        off_b = config.fim_offset_bursts
        data_b = np.maximum(1, -(-(items * 8) // spec.burst_bytes))
        np.add.at(bus_busy, channel, (off_b + data_b) * spec.tBURST)
        n_scatter = int(np.count_nonzero(is_scatter))
        stats.fim_offset_bursts += off_b * n
        stats.fim_scatters += n_scatter
        stats.fim_gathers += n - n_scatter
        stats.write_bursts += off_b * n + int(data_b[is_scatter].sum())
        stats.read_bursts += int(data_b[~is_scatter].sum())
        stats.internal_words += int(items.sum())
        return bank, row, cost


class _EpisodeCandidate:
    """Per-bank episode time of one candidate service order, fed in blocks.

    Row runs carry across blocks.  A run's cost total is one
    ``np.add.reduceat`` over its costs (not a running float sum), and
    each bank adds its episode times in service order, so the float
    busy times do not depend on where the block boundaries fall.
    """

    __slots__ = (
        "_spec", "bank_busy", "episodes", "_last_bank", "_last_row", "_run"
    )

    def __init__(self, spec, n_banks: int) -> None:
        self._spec = spec
        self.bank_busy = np.zeros(n_banks, dtype=np.float64)
        self.episodes = 0
        self._last_bank = -1  # -1 = no open run
        self._last_row = -1
        #: costs of the open run, which a later block may continue
        self._run: list[np.ndarray] = []

    def starts(self, bank: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Indices of the (non-empty) block where a new row run starts."""
        boundary = np.empty(bank.size, dtype=bool)
        boundary[0] = bank[0] != self._last_bank or row[0] != self._last_row
        boundary[1:] = (bank[1:] != bank[:-1]) | (row[1:] != row[:-1])
        return np.flatnonzero(boundary)

    def consume(
        self,
        bank: np.ndarray,
        row: np.ndarray,
        cost: np.ndarray,
        starts: np.ndarray,
        last: bool,
    ) -> None:
        """Charge the runs a block closes (``starts`` from :meth:`starts`);
        the block's trailing run stays open unless ``last``."""
        if self._run:
            head = int(starts[0]) if starts.size else bank.size
            if head:
                self._run.append(cost[:head])
            if head == bank.size and not last:
                return
            self._close_run()
            if not starts.size:
                return
        sums = np.add.reduceat(cost, starts)
        if not last:
            tail = int(starts[-1])
            self._run = [cost[tail:]]
            self._last_bank = int(bank[tail])
            self._last_row = int(row[tail])
            starts, sums = starts[:-1], sums[:-1]
        if starts.size:
            spec = self._spec
            episode_time = np.maximum(spec.tRAS, spec.tRCD + sums) + spec.tRP
            np.add.at(self.bank_busy, bank[starts], episode_time)
            self.episodes += int(starts.size)

    def _close_run(self) -> None:
        spec = self._spec
        run_cost = (
            self._run[0] if len(self._run) == 1 else np.concatenate(self._run)
        )
        total = np.add.reduceat(run_cost, np.array([0]))[0]
        episode_time = max(spec.tRAS, spec.tRCD + total) + spec.tRP
        self.bank_busy[self._last_bank] += episode_time
        self.episodes += 1
        self._run = []
        self._last_bank = -1
        self._last_row = -1

    def finish(self) -> None:
        if self._run:
            self._close_run()


class _EpisodeStream:
    """One kind of bank work -- random bursts or FIM ops -- fed in chunks
    and served with a windowed row-hit-first reorder (FR-FCFS).

    Within each window of ``scheduler_window`` arrivals, requests to the
    same bank and row are served back-to-back (a stable sort by window,
    bank, row).  That sort can *split* a row run which arrival order
    kept together across a window boundary, and a real FR-FCFS scheduler
    reorders only opportunistically, so the reordered schedule is used
    only when it has fewer row episodes than arrival order.  The choice
    is made over the whole stream: both candidate schedules accumulate
    side by side and :meth:`finish` picks one.  Window boundaries are
    global across chunks; the unsorted rest of a window waits in the
    buffer.  A lone chunk waits whole until :meth:`finish`, which then
    counts both schedules' episodes first and walks only the winner.
    """

    __slots__ = (
        "window", "bus_busy", "_banks", "_arrival", "_reorder", "_buf",
        "_walked",
    )

    def __init__(self, model: DRAMModel) -> None:
        self.window = model.scheduler_window
        config = model.config
        self._banks = config.total_banks
        #: off-chip data-bus time per channel charged by this stream
        self.bus_busy = np.zeros(config.channels, dtype=np.float64)
        self._arrival = _EpisodeCandidate(model.spec, self._banks)
        self._reorder = _EpisodeCandidate(model.spec, self._banks)
        #: chunks not yet walked; they start on a window boundary
        self._buf: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._walked = False

    def feed(
        self, bank: np.ndarray, row: np.ndarray, cost: np.ndarray
    ) -> None:
        """Queue a non-empty chunk; a second one walks the whole windows."""
        self._buf.append((bank, row, cost))
        if len(self._buf) > 1:
            self._walk(last=False)

    def _order(self, bank: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Row-hit-first service order within each window: a stable sort
        by (window, bank, row), packed into one int64 key (one stable
        argsort is several times faster than a three-key lexsort)."""
        rows = int(row.max()) + 1
        window = np.arange(bank.size, dtype=np.int64) // self.window
        key = (window * self._banks + bank) * rows + row
        return np.argsort(key, kind="stable")

    def _take(self, last: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Buffered requests up to the last whole window (all when
        ``last``: the trailing partial window is sorted among itself)."""
        if len(self._buf) == 1:
            bank, row, cost = self._buf[0]
        else:
            bank, row, cost = (
                np.concatenate([part[i] for part in self._buf])
                for i in range(3)
            )
        n = bank.size if last else bank.size - bank.size % self.window
        self._buf = [] if n == bank.size else [(bank[n:], row[n:], cost[n:])]
        return bank[:n], row[:n], cost[:n]

    def _walk(self, last: bool) -> None:
        """Feed the buffered whole windows to both candidates."""
        bank, row, cost = self._take(last)
        if not bank.size:
            return
        self._walked = True
        order = self._order(bank, row)
        arrival, reorder = self._arrival, self._reorder
        arrival.consume(bank, row, cost, arrival.starts(bank, row), last)
        bank, row, cost = bank[order], row[order], cost[order]
        reorder.consume(bank, row, cost, reorder.starts(bank, row), last)

    def finish(self) -> tuple[np.ndarray, int]:
        """(bank_busy, acts) of the accepted schedule."""
        arrival, reorder = self._arrival, self._reorder
        if not self._walked:
            # the buffer holds the whole stream: decide, then walk once
            bank, row, cost = self._take(last=True)
            starts = arrival.starts(bank, row)
            order = self._order(bank, row)
            sorted_bank, sorted_row = bank[order], row[order]
            sorted_starts = arrival.starts(sorted_bank, sorted_row)
            if sorted_starts.size < starts.size:
                bank, row, cost = sorted_bank, sorted_row, cost[order]
                starts = sorted_starts
            arrival.consume(bank, row, cost, starts, last=True)
            return arrival.bank_busy, arrival.episodes
        if self._buf:
            self._walk(last=True)
        arrival.finish()
        reorder.finish()
        chosen = reorder if reorder.episodes < arrival.episodes else arrival
        return chosen.bank_busy, chosen.episodes


class PhaseAccumulator:
    """The DRAM phase evaluator (:meth:`DRAMModel.open_phase`).

    ``add`` takes request / FIM-op chunks any number of times; ``close``
    resolves the scheduler-window decision over the whole stream and
    returns the phase's :class:`PhaseStats`.  The stats -- busy-time
    floats included -- do not depend on how the stream was chunked,
    while temporaries stay O(chunk + scheduler window).  Random bursts
    and FIM ops keep separate bank/bus busy arrays, summed at close.
    """

    def __init__(self, model: DRAMModel) -> None:
        self._model = model
        config = model.config
        self.stats = PhaseStats(_burst_bytes=model.spec.burst_bytes)
        #: episode streams of the random bursts and of the FIM ops, built
        #: on first use (many phases carry only sequential streams)
        self._bursts: _EpisodeStream | None = None
        self._fim: _EpisodeStream | None = None
        self._rank_busy = np.zeros(
            config.channels * config.ranks, dtype=np.float64
        )
        self._loose_bursts = 0
        self._closed = False
        #: the resolved random side, set by :meth:`close`
        self.random_side: RandomSide | None = None

    def add(
        self,
        addrs: np.ndarray | None = None,
        is_write: np.ndarray | None = None,
        fim_ops: FimOpBatch | None = None,
        loose_read_bursts: int = 0,
    ) -> None:
        """Accumulate one chunk of phase work.

        Args:
            addrs: byte addresses of burst-granularity random requests.
            is_write: bool array parallel to ``addrs`` (False = read).
            fim_ops: scatter/gather operations (already row-grouped by the
                collection-extended MSHR) as a :class:`FimOpBatch`.
            loose_read_bursts: bus-only read bursts with no bank work
                (the PIM baseline's per-atomic response transactions),
                spread evenly over channels.

        Raises:
            ValueError: ``is_write`` is not as long as ``addrs``.
        """
        if self._closed:
            raise RuntimeError("PhaseAccumulator already closed")
        model = self._model
        stats = self.stats
        n = 0 if addrs is None else len(addrs)
        if is_write is not None and np.shape(is_write) != (n,):
            raise ValueError(
                f"is_write has shape {np.shape(is_write)}; addrs has {n} "
                f"entries"
            )
        if n:
            addrs = np.asarray(addrs, dtype=np.int64)
            if is_write is None:
                is_write = np.zeros(n, dtype=bool)
            else:
                is_write = np.asarray(is_write, dtype=bool)
            if self._bursts is None:
                self._bursts = _EpisodeStream(model)
            bank, row = model.mapper.bank_key_many(addrs)
            cost = np.full(n, model._col_cost, dtype=np.float64)
            self._bursts.feed(bank, row, cost)
            writes = int(np.count_nonzero(is_write))
            stats.read_bursts += n - writes
            stats.write_bursts += writes
            channel = model.mapper.channel_of_many(addrs)
            np.add.at(self._bursts.bus_busy, channel, model.spec.tBURST)
        if fim_ops is not None and len(fim_ops):
            if self._fim is None:
                self._fim = _EpisodeStream(model)
            bank, row, cost = model._fim_charge(
                fim_ops, self._fim.bus_busy, self._rank_busy, stats
            )
            self._fim.feed(bank, row, cost)
        stats.read_bursts += int(loose_read_bursts)
        self._loose_bursts += int(loose_read_bursts)

    def close(
        self,
        stream_read_bytes: float = 0.0,
        stream_write_bytes: float = 0.0,
    ) -> PhaseStats:
        """Resolve scheduling over the accumulated stream and finish the
        phase.  ``stream_read_bytes`` / ``stream_write_bytes`` are the
        sequential prefetcher traffic (topology, property streams),
        charged analytically.  The resolved random side stays on the
        accumulator as :attr:`random_side`."""
        if self._closed:
            raise RuntimeError("PhaseAccumulator already closed")
        self._closed = True
        model = self._model
        config = model.config
        stats = self.stats
        bank_busy = np.zeros(config.total_banks, dtype=np.float64)
        bus_busy = np.zeros(config.channels, dtype=np.float64)
        for stream in (self._bursts, self._fim):
            if stream is not None:
                busy, acts = stream.finish()
                stats.acts += acts
                bank_busy = bank_busy + busy
                bus_busy = bus_busy + stream.bus_busy
        if self._loose_bursts:
            bus_busy = bus_busy + (
                self._loose_bursts * model.spec.tBURST / config.channels
            )
        self.random_side = RandomSide(
            model,
            stats,
            bus_busy,
            float(bank_busy.max(initial=0.0)),
            float(self._rank_busy.max(initial=0.0)),
        )
        return self.random_side.close(stream_read_bytes, stream_write_bytes)


class RandomSide:
    """A phase's resolved random side: the counters, per-channel bus
    busy time and bank and rank busy maxima of its random requests and
    FIM ops, O(channels) however long the phase was.

    :meth:`close` finishes the phase over its sequential stream bytes,
    with the float operations of :meth:`PhaseAccumulator.close` in the
    same order, and leaves the side as it was, so one side closes again
    over another iteration's stream bytes.
    """

    __slots__ = ("_model", "stats", "bus_busy", "bank_busy_max", "rank_busy_max")

    def __init__(
        self,
        model: DRAMModel,
        stats: PhaseStats,
        bus_busy: np.ndarray,
        bank_busy_max: float,
        rank_busy_max: float,
    ) -> None:
        self._model = model
        self.stats = stats
        self.bus_busy = bus_busy
        self.bank_busy_max = bank_busy_max
        self.rank_busy_max = rank_busy_max

    def close(
        self,
        stream_read_bytes: float = 0.0,
        stream_write_bytes: float = 0.0,
    ) -> PhaseStats:
        """The phase's stats with the sequential prefetcher traffic
        (``stream_read_bytes`` / ``stream_write_bytes``) charged
        analytically on top of the random side."""
        model = self._model
        spec = model.spec
        config = model.config
        stats = PhaseStats(**vars(self.stats))
        bus_busy = self.bus_busy
        stream_bursts_rd = ceil_div(int(stream_read_bytes), spec.burst_bytes)
        stream_bursts_wr = ceil_div(int(stream_write_bytes), spec.burst_bytes)
        if stream_bursts_rd or stream_bursts_wr:
            total = (stream_bursts_rd + stream_bursts_wr) * spec.tBURST
            bus_busy = bus_busy + total / config.channels
            stats.read_bursts += stream_bursts_rd
            stats.write_bursts += stream_bursts_wr
            stats.acts += ceil_div(
                int(stream_read_bytes + stream_write_bytes), spec.row_bytes
            )
        stats.bus_busy_ns = float(bus_busy.sum())
        busiest = max(
            self.bank_busy_max,
            float(bus_busy.max(initial=0.0)),
            self.rank_busy_max,
        )
        if busiest > 0.0:
            busiest = max(busiest, model.latency_ns())
        stats.time_ns = busiest
        return stats
