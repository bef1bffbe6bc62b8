"""Cross-validation of the two DRAM models.

The figure sweeps run on the fast analytic phase evaluator
(:class:`repro.dram.system.DRAMModel`); the command-level engine exists
to show that the analytic shortcuts (row episodes, bus occupancy,
FIM window accounting) do not distort the quantities the paper's
conclusions rest on.  This module runs identical workloads through both
and reports the ratio of predicted durations plus the engine-side
command counts.

Agreement is expected to be loose -- the engine serialises the command
bus and pays CAS latencies the throughput model hides -- but *stable*:
the ratio must stay within a band across strides, and the FIM-vs-
conventional speedup (the quantity Fig. 9 reports) must agree much more
tightly, because model constants cancel in the ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.dram.engine.engine import DRAMEngine
from repro.dram.engine.workloads import (
    conventional_requests,
    fim_requests,
    random_mix,
    strided_addresses,
)
from repro.dram.spec import DRAMConfig, default_config
from repro.dram.fim_batch import FimOpBatch
from repro.dram.system import DRAMModel


@dataclass(frozen=True)
class XValPoint:
    """One workload compared across models."""

    label: str
    engine_ns: float
    analytic_ns: float
    engine_commands: int

    @property
    def ratio(self) -> float:
        """engine / analytic duration (1.0 = perfect agreement)."""
        if self.analytic_ns == 0:
            raise ValueError(
                f"cross-validation point {self.label!r} has zero analytic "
                "duration; the ratio is undefined (empty workload?)"
            )
        return self.engine_ns / self.analytic_ns


def _analytic_conventional_ns(
    config: DRAMConfig,
    addrs: np.ndarray,
    is_write: np.ndarray | None,
) -> float:
    """Analytic phase duration for a burst-request stream."""
    analytic = DRAMModel(config)
    burst = config.spec.burst_bytes
    blocks = (np.asarray(addrs, dtype=np.int64) // burst) * burst
    keep = np.ones(blocks.size, dtype=bool)
    keep[1:] = blocks[1:] != blocks[:-1]
    phase = analytic.phase(
        addrs=blocks[keep],
        is_write=None if is_write is None
        else np.asarray(is_write, dtype=bool)[keep],
    )
    return phase.time_ns


def _analytic_fim_ns(
    config: DRAMConfig,
    requests: list,
    channels: np.ndarray,
    scatter: bool,
) -> float:
    """Analytic phase duration for a FIM request stream."""
    analytic = DRAMModel(config)
    ops = FimOpBatch()
    for channel, request in zip(channels.tolist(), requests):
        ops.append(
            channel, request.rank,
            _global_bank(config, channel, request.rank, request.bank),
            request.row, len(request.offsets), scatter,
        )
    return analytic.phase(fim_ops=ops).time_ns


def compare_conventional(
    config: DRAMConfig,
    addrs: np.ndarray,
    is_write: np.ndarray | None = None,
    label: str = "conventional",
    refresh: bool = False,
) -> XValPoint:
    """Run burst requests through both models."""
    engine = DRAMEngine(config, refresh_enabled=refresh)
    requests, channels = conventional_requests(config, addrs, is_write)
    result = engine.run(requests, channels)
    analytic_ns = _analytic_conventional_ns(config, addrs, is_write)
    n_cmds = sum(len(t) for t in result.traces)
    return XValPoint(label, result.time_ns, analytic_ns, n_cmds)


def compare_fim(
    config: DRAMConfig,
    addrs: np.ndarray,
    scatter: bool = False,
    label: str = "fim",
    refresh: bool = False,
) -> XValPoint:
    """Run row-grouped FIM operations through both models."""
    engine = DRAMEngine(config, refresh_enabled=refresh)
    requests, channels = fim_requests(config, addrs, scatter=scatter)
    result = engine.run(requests, channels)
    analytic_ns = _analytic_fim_ns(config, requests, channels, scatter)
    n_cmds = sum(len(t) for t in result.traces)
    return XValPoint(label, result.time_ns, analytic_ns, n_cmds)


#: engine-xval trajectory scales: bytes swept by the strided workloads
#: and request count for the random ones.  ``mid`` is sized for the
#: tier-1 CI smoke; ``paper`` runs nightly.
ENGINE_XVAL_PROFILES: dict[str, dict[str, int]] = {
    "toy": {"total_bytes": 1 << 15, "random_requests": 400},
    "mid": {"total_bytes": 1 << 17, "random_requests": 1600},
    "paper": {"total_bytes": 1 << 19, "random_requests": 6400},
}

#: the per-profile workload grid (trajectory cell leaf names)
ENGINE_XVAL_WORKLOADS = ("conv-hit", "conv-miss", "fim-gather", "mix")


def engine_xval_workload(
    config: DRAMConfig,
    profile: str,
    workload: str,
    engine: DRAMEngine,
) -> tuple[list, np.ndarray, dict]:
    """Build one engine-xval cell's request stream.

    Returns ``(requests, channels, analytic_inputs)`` where the last
    carries what :func:`run_engine_xval_cell` needs to price the same
    work on the analytic model.
    """
    if profile not in ENGINE_XVAL_PROFILES:
        raise ValueError(f"unknown engine-xval profile {profile!r}")
    scale = ENGINE_XVAL_PROFILES[profile]
    if workload == "conv-hit":
        # Streaming bursts: long row episodes, the worst case for a
        # per-request queue scan (it re-picks the same open row on
        # every command).
        addrs = strided_addresses(config, scale["total_bytes"], 8, False)
        requests, channels = conventional_requests(config, addrs)
        return requests, channels, {"kind": "conv", "addrs": addrs,
                                    "is_write": None}
    if workload == "conv-miss":
        # Random single-burst reads: row misses dominate, exercising
        # the preparation (PRE/ACT) scheduling path.
        addrs, _ = random_mix(config, scale["random_requests"], seed=101,
                              write_fraction=0.0)
        requests, channels = conventional_requests(config, addrs)
        return requests, channels, {"kind": "conv", "addrs": addrs,
                                    "is_write": None}
    if workload == "fim-gather":
        # Row-grouped FIM gathers: the Piccolo virtual-row sequences.
        addrs = strided_addresses(config, scale["total_bytes"], 2, False)
        requests, channels = fim_requests(config, addrs)
        return requests, channels, {"kind": "fim", "requests": requests,
                                    "channels": channels,
                                    "scatter": False}
    if workload == "mix":
        # Adversarial fuzz cell: random reads+writes drive the write-
        # drain hysteresis and bus turnarounds; recorded honestly even
        # though the batched win is smallest here.
        addrs, is_write = random_mix(config, scale["random_requests"],
                                     seed=202, write_fraction=0.3)
        requests, channels = engine.requests_from_addresses(addrs, is_write)
        return requests, channels, {"kind": "conv", "addrs": addrs,
                                    "is_write": is_write}
    raise ValueError(f"unknown engine-xval workload {workload!r}")


def run_engine_xval_cell(
    profile: str,
    workload: str,
    config: DRAMConfig | None = None,
) -> dict:
    """Time one engine-xval trajectory cell and cross-validate it.

    Returns the measured wall seconds of the engine run plus the
    engine/analytic duration ratio, command count and cycle count.
    The perf harness's ``engine-xval/<profile>`` families
    (``tools/perf_report.py engine-xval/mid``) time these cells and
    record the ratio with each point.
    """
    if config is None:
        config = default_config()
    engine = DRAMEngine(config, refresh_enabled=True)
    requests, channels, analytic = engine_xval_workload(
        config, profile, workload, engine
    )
    start = time.perf_counter()
    result = engine.run(requests, channels)
    seconds = time.perf_counter() - start
    if analytic["kind"] == "fim":
        analytic_ns = _analytic_fim_ns(
            config, analytic["requests"], analytic["channels"],
            analytic["scatter"],
        )
    else:
        analytic_ns = _analytic_conventional_ns(
            config, analytic["addrs"], analytic["is_write"]
        )
    point = XValPoint(
        f"engine-xval/{profile}/{workload}", result.time_ns, analytic_ns,
        sum(len(t) for t in result.traces),
    )
    return {
        "cell": point.label,
        "seconds": seconds,
        "cycles": result.cycles,
        "commands": point.engine_commands,
        "engine_ns": point.engine_ns,
        "analytic_ns": point.analytic_ns,
        "ratio": point.ratio,
    }


def microbench_speedups(
    config: DRAMConfig,
    total_bytes: int,
    strides: tuple[int, ...] = (4, 8, 16, 32),
    single_row: bool = True,
) -> list[dict]:
    """Fig. 9 on the command-level engine: FIM speedup per stride.

    Returns one row per stride with engine-measured conventional and
    FIM durations and their ratio (the paper's speedup series).
    """
    rows: list[dict] = []
    for stride in strides:
        addrs = strided_addresses(config, total_bytes, stride, single_row)
        conventional = compare_conventional(
            config, addrs, label=f"stride{stride}-conv"
        )
        fim = compare_fim(config, addrs, label=f"stride{stride}-fim")
        rows.append({
            "stride": stride,
            "conv_ns": conventional.engine_ns,
            "fim_ns": fim.engine_ns,
            "speedup": (conventional.engine_ns / fim.engine_ns
                        if fim.engine_ns else float("inf")),
            "conv_ratio_vs_analytic": conventional.ratio,
            "fim_ratio_vs_analytic": fim.ratio,
        })
    return rows


def _global_bank(config: DRAMConfig, channel: int, rank: int,
                 bank: int) -> int:
    per_rank = config.spec.banks_per_rank
    return (channel * config.ranks + rank) * per_rank + bank
