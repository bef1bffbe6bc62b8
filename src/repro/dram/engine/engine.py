"""Multi-channel command-level engine: request streams in, cycles out.

Channels have independent command/address/data buses (Sec. II-C), so
each channel's controller
(:class:`~repro.dram.engine.batched.BatchedChannelController`, the
vectorized FR-FCFS scheduler) simulates independently with
event-skipping: the clock jumps straight to the next cycle at which any
command can issue.  The run finishes when every request has completed;
total time is the slowest channel's finish cycle.  Each channel's trace
is a list of :class:`~repro.dram.engine.commands.Command` records.

This engine is the high-fidelity counterpart of the fast phase
evaluator in :mod:`repro.dram.system`; `repro.dram.engine.xval`
cross-validates the two on shared workloads.  The per-command scalar
walk the controller was derived from lives in
``tests/reference_engine.py`` as the bit-exactness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.address import AddressMapper
from repro.dram.engine.batched import BatchedChannelController
from repro.dram.engine.commands import (
    Command,
    EngineStats,
    Request,
    RequestType,
)
from repro.dram.engine.timing import TimingTable, timing_from_spec
from repro.dram.spec import DRAMConfig

#: safety valve: one channel may not run longer than this many cycles
MAX_CYCLES = 1 << 34


@dataclass
class EngineResult:
    """Outcome of one engine run."""

    timing: TimingTable
    cycles: int
    stats: EngineStats
    requests: list[Request]
    #: per-channel command traces (sorted by cycle within a channel)
    traces: list[list[Command]] = field(default_factory=list)

    @property
    def time_ns(self) -> float:
        """Run duration in nanoseconds."""
        return self.timing.ns(self.cycles)

    @property
    def mean_latency_ns(self) -> float:
        """Mean request latency in nanoseconds."""
        return self.timing.ns(self.stats.mean_latency)

    def bandwidth_gbps(self, bytes_moved: float) -> float:
        """Achieved bandwidth for a caller-supplied byte count."""
        if self.cycles == 0:
            return 0.0
        return bytes_moved / self.time_ns


class DRAMEngine:
    """Command-level simulation of one :class:`DRAMConfig` system."""

    def __init__(
        self,
        config: DRAMConfig,
        queue_depth: int = 32,
        refresh_enabled: bool = True,
    ) -> None:
        if queue_depth < 1:
            # A queue that admits nothing would leave the driver
            # creeping toward MAX_CYCLES one cycle at a time.
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.config = config
        self.timing = timing_from_spec(config.spec)
        self.mapper = AddressMapper(config)
        self.queue_depth = queue_depth
        self.refresh_enabled = refresh_enabled

    # ------------------------------------------------------------------
    def requests_from_addresses(
        self,
        addrs: np.ndarray,
        is_write: np.ndarray | None = None,
        arrivals: np.ndarray | None = None,
    ) -> tuple[list[Request], np.ndarray]:
        """Decode byte addresses into requests plus their channel route.

        Raises:
            ValueError: ``is_write`` or ``arrivals`` is not as long as
                ``addrs``.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if is_write is None:
            is_write = np.zeros(addrs.size, dtype=bool)
        if arrivals is None:
            arrivals = np.zeros(addrs.size, dtype=np.int64)
        for name, values in (("is_write", is_write), ("arrivals", arrivals)):
            if len(values) != addrs.size:
                raise ValueError(
                    f"{name} has {len(values)} entries; addrs has "
                    f"{addrs.size}"
                )
        channel, rank, bank, row, column = self.mapper.decode_many(addrs)
        requests: list[Request] = []
        for i in range(addrs.size):
            kind = RequestType.WRITE if is_write[i] else RequestType.READ
            requests.append(Request(
                kind=kind,
                rank=int(rank[i]),
                bank=int(bank[i]),
                row=int(row[i]),
                column=int(column[i]),
                arrival=int(arrivals[i]),
                req_id=i,
            ))
        return requests, channel

    # ------------------------------------------------------------------
    def _split_channels(
        self,
        requests: list[Request],
        channels: np.ndarray | None,
    ) -> list[list[Request]]:
        """Per-channel request lists, in request order, after checking
        the route."""
        n_channels = self.config.channels
        per_channel: list[list[Request]] = [[] for _ in range(n_channels)]
        if channels is None:
            per_channel[0].extend(requests)
            return per_channel
        route = np.asarray(channels)
        if route.shape != (len(requests),):
            raise ValueError(
                f"channels has shape {route.shape}; requests has "
                f"{len(requests)} entries"
            )
        if route.size and (route.min() < 0 or route.max() >= n_channels):
            raise ValueError(
                f"channels routes outside [0, {n_channels}): "
                f"min {route.min()}, max {route.max()}"
            )
        for request, channel in zip(requests, route.tolist()):
            per_channel[channel].append(request)
        return per_channel

    def run(
        self,
        requests: list[Request],
        channels: np.ndarray | None = None,
    ) -> EngineResult:
        """Simulate to completion.

        Args:
            requests: the request list (arrival cycles respected).
            channels: per-request channel index; defaults to channel 0.

        Raises:
            ValueError: ``channels`` is not as long as ``requests``, or
                routes a request outside ``[0, config.channels)``.
        """
        per_channel = self._split_channels(requests, channels)
        controllers = [
            BatchedChannelController(
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
            finish = max(finish, self._run_channel(controller, queue))
            self._merge_stats(stats, controller.stats)
            stats.data_bus_clocks[controller.channel] = (
                controller.bus_busy_clocks
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
    def _run_channel(self, controller: BatchedChannelController,
                     queue: list[Request]) -> int:
        """Feed one channel's requests through its controller.

        Visits exactly the decision points of a cycle-by-cycle walk
        (the reference walk of ``tests/reference_engine.py``) at which
        the choice can change: between two state changes the candidate
        set is constant except at refresh-deadline crossings, so when
        the chosen command lies in the future the clock jumps straight
        to it -- unless an arrival the walk would stop at, or a refresh
        deadline it would creep onto, comes first.
        """
        queue = sorted(queue, key=lambda r: r.arrival)
        n_queue = len(queue)
        next_new = 0
        now = 0
        finish = 0
        while next_new < n_queue or controller.pending:
            while (next_new < n_queue
                    and queue[next_new].arrival <= now
                    and controller.can_accept(queue[next_new].kind)):
                controller.enqueue(queue[next_new])
                next_new += 1
            while True:
                cycle, action = controller.next_action(now)
                if action is None:
                    # Idle: jump to the next arrival or refresh deadline.
                    jump = cycle
                    if next_new < n_queue:
                        jump = min(jump,
                                   max(now + 1, queue[next_new].arrival))
                    if jump <= now:
                        jump = now + 1
                    now = jump
                    break
                if cycle > now:
                    arrival = (queue[next_new].arrival
                               if next_new < n_queue else None)
                    if arrival is not None and arrival <= now:
                        if controller.can_accept(queue[next_new].kind):
                            # A fim_start freed queue room mid-scan: the
                            # walk admits the waiting head at its very
                            # next step.
                            now = now + 1
                            break
                        # A capacity-blocked head: the walk creeps
                        # cycle by cycle, so a refresh deadline inside
                        # the jump is seen exactly when it falls due.
                        crossing = controller.next_refresh_crossing(
                            now, cycle)
                        if crossing is not None:
                            now = crossing
                            break
                    elif arrival is not None and arrival <= cycle:
                        # The walk stops at the arrival, admits, and
                        # rescans there.
                        now = arrival
                        break
                    else:
                        # Single jump to the command cycle; a refresh
                        # deadline crossed on the way joins the
                        # candidate set there, so rescan at the target.
                        if controller.next_refresh_crossing(
                                now, cycle) is not None:
                            now = cycle
                            break
                controller.execute(action, cycle)
                if action[0] == "fim_start":
                    # Starting a program consumes no command-bus slot:
                    # schedule again at the same cycle, with no
                    # admission in between.
                    now = cycle
                    continue
                now = cycle + 1
                break
            if now > MAX_CYCLES:
                raise RuntimeError("engine exceeded cycle budget")
        for request in controller.finished:
            finish = max(finish, request.finish_cycle)
        return finish

    @staticmethod
    def _merge_stats(total: EngineStats, part: EngineStats) -> None:
        total.acts += part.acts
        total.pres += part.pres
        total.reads += part.reads
        total.writes += part.writes
        total.refreshes += part.refreshes
        total.gathers += part.gathers
        total.scatters += part.scatters
        total.total_latency += part.total_latency
        total.finished_requests += part.finished_requests
