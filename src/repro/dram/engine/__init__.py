"""Command-level DRAM engine (the Ramulator-equivalent substrate).

The package replays every DDR command on an integer clock with the full
JEDEC constraint set -- bank groups, tFAW/tRRD, write-to-read
turnarounds, refresh -- plus Piccolo's virtual-row FIM sequences, and
ships an independent trace checker and a cross-validation harness
against the fast analytic model used by the figure sweeps.

Typical use::

    from repro.dram.engine import DRAMEngine, check_engine_result
    from repro.dram.engine.workloads import conventional_requests
    from repro.dram.spec import default_config

    config = default_config()
    engine = DRAMEngine(config)
    requests, channels = conventional_requests(config, addrs)
    result = engine.run(requests, channels)
    check_engine_result(result)        # raises on any protocol breach
    print(result.time_ns, result.stats.acts)
"""

from repro.dram.engine.batched import BatchedChannelController
from repro.dram.engine.checker import (
    EngineProtocolViolation,
    TraceChecker,
    check_engine_result,
)
from repro.dram.engine.commands import (
    Command,
    CommandType,
    EngineStats,
    Request,
    RequestType,
)
from repro.dram.engine.engine import DRAMEngine, EngineResult
from repro.dram.engine.timing import TimingTable, timing_from_spec

__all__ = [
    "BatchedChannelController",
    "Command",
    "CommandType",
    "DRAMEngine",
    "EngineProtocolViolation",
    "EngineResult",
    "EngineStats",
    "Request",
    "RequestType",
    "TimingTable",
    "TraceChecker",
    "check_engine_result",
    "timing_from_spec",
]
