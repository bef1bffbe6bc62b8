"""Command and request vocabulary of the command-level engine.

A *request* is what the accelerator's miss path hands the memory
controller: a burst-granularity read or write, or a Piccolo-FIM
gather/scatter macro-operation (Sec. IV).  A *command* is one slot on
the DDR command bus: ACT, PRE, RD, WR or REF.  The controller decomposes
each request into commands, subject to the timing table.

FIM requests expand into the Sec. VI virtual-row sequence of standard
commands; the ``virtual`` flag marks the PRE/ACT/RD/WR slots that the
in-DRAM internal controller translates to buffer operations or no-ops,
which is bookkeeping for the trace (the *bus* sees only standard
commands, as the FPGA validation requires).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


#: column regions of the virtual rows (Fig. 8a): column commands to
#: the virtual rows address the offset buffer or the data buffer
OFFSET_BUFFER_COLUMN = 0
DATA_BUFFER_COLUMN = 8


class CommandType(enum.Enum):
    """One slot on the DDR command bus."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"


class RequestType(enum.Enum):
    """What the host asked for."""

    READ = "READ"
    WRITE = "WRITE"
    GATHER = "GATHER"
    SCATTER = "SCATTER"

    @property
    def is_fim(self) -> bool:
        """Whether this is a scatter/gather macro-request."""
        return self in (RequestType.GATHER, RequestType.SCATTER)


@dataclass
class Request:
    """One memory request presented to a channel controller.

    Attributes:
        kind: request type.
        rank/bank/row: target location (bank is rank-local).
        column: column of the burst (ignored for FIM requests).
        offsets: in-row word offsets for GATHER/SCATTER.
        arrival: cycle at which the request enters the queue.
        req_id: stable id for result correlation.
        issue_cycle: first command cycle (set by the controller).
        finish_cycle: cycle at which data transfer completes.
    """

    kind: RequestType
    rank: int
    bank: int
    row: int
    column: int = 0
    offsets: tuple[int, ...] = ()
    arrival: int = 0
    req_id: int = -1
    issue_cycle: int = -1
    finish_cycle: int = -1

    def __post_init__(self) -> None:
        if self.kind.is_fim and not self.offsets:
            raise ValueError(f"{self.kind.value} request needs offsets")

    @property
    def done(self) -> bool:
        """Whether the request's data transfer has completed."""
        return self.finish_cycle >= 0

    @property
    def latency(self) -> int:
        """Queue-entry-to-data latency in cycles (request must be done)."""
        if not self.done:
            raise ValueError("request not finished")
        return self.finish_cycle - self.arrival


@dataclass(frozen=True)
class Command:
    """One issued command, as recorded in the trace."""

    cycle: int
    kind: CommandType
    rank: int
    bank: int
    row: int | None = None
    column: int | None = None
    #: the request this command serves (-1 for refresh)
    req_id: int = -1
    #: part of a FIM virtual-row sequence (chip translates it)
    virtual: bool = False
    #: data-bus beats this command initiates (RD/WR only), in clocks
    data_clocks: int = 0
    #: first clock of the data transfer (RD: cycle + tCL, WR: + tCWL)
    data_start: int = 0

    @property
    def data_end(self) -> int:
        """Last data-bus clock of this command's transfer."""
        return self.data_start + self.data_clocks


@dataclass
class EngineStats:
    """Aggregate activity counters of one engine run."""

    cycles: int = 0
    acts: int = 0
    pres: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    gathers: int = 0
    scatters: int = 0
    #: data-bus busy clocks per channel index
    data_bus_clocks: dict[int, int] = field(default_factory=dict)
    #: sum of request latencies (for mean latency)
    total_latency: int = 0
    finished_requests: int = 0

    @property
    def mean_latency(self) -> float:
        """Mean request latency in clocks."""
        if not self.finished_requests:
            return 0.0
        return self.total_latency / self.finished_requests

