"""Shared result container and base class for accelerator systems."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.accel.layout import MemoryLayout
from repro.accel.pipeline import PipelineConfig
from repro.algorithms import make_algorithm
from repro.algorithms.vcm import AlgorithmSpec
from repro.cache.conventional import ConventionalCache
from repro.core.memory_path import (
    ConventionalMemoryPath,
    FineGrainedMemoryPath,
    counter_delta,
)
from repro.dram.spec import DRAMConfig, default_config
from repro.dram.system import DRAMModel, PhaseAccumulator, PhaseStats, RandomSide
from repro.graph.csr import CSRGraph
from repro.utils import units


@dataclass
class SystemResult:
    """Everything the figures need from one (system, algorithm, dataset) run."""

    system: str
    algorithm: str
    dataset: str
    # timing
    total_ns: float = 0.0
    compute_ns: float = 0.0
    memory_ns: float = 0.0
    # physical memory activity (aggregated PhaseStats)
    dram: PhaseStats = field(default_factory=PhaseStats)
    # traffic classification (Fig. 3 / Fig. 12)
    useful_bytes: float = 0.0
    stream_read_bytes: float = 0.0
    stream_write_bytes: float = 0.0
    random_read_bytes: float = 0.0
    random_write_bytes: float = 0.0
    # workload shape
    iterations: int = 0
    edges_processed: int = 0
    vertex_applies: int = 0
    tile_width: int = 0
    num_tiles: int = 0
    # component stats (optional, system-dependent)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_accesses: int = 0
    mshr_ops: int = 0
    mshr_forwarded: int = 0
    #: on-chip SRAM budget modelled for this system (energy/area)
    onchip_bytes: int = 0

    @property
    def cycles(self) -> float:
        """Total cycles at the 1 GHz accelerator clock."""
        return self.total_ns  # 1 cycle == 1 ns at 1 GHz

    @property
    def offchip_bytes(self) -> float:
        return float(self.dram.read_bytes + self.dram.write_bytes)

    @property
    def offchip_bandwidth_gbps(self) -> float:
        if self.total_ns == 0:
            return 0.0
        return self.offchip_bytes / self.total_ns

    @property
    def internal_bandwidth_gbps(self) -> float:
        if self.total_ns == 0:
            return 0.0
        return self.dram.internal_words * 8.0 / self.total_ns

    @property
    def useful_fraction(self) -> float:
        total = self.offchip_bytes
        return self.useful_bytes / total if total else 0.0

    @property
    def cache_hit_rate(self) -> float:
        if self.cache_accesses == 0:
            return 0.0
        return self.cache_hits / self.cache_accesses

    # -- checkpoint serialisation --------------------------------------
    def to_record(self) -> dict:
        """Plain-data form of the result (JSON-safe: strs, ints, floats).

        Exact round-trip: Python's JSON encoder emits shortest-roundtrip
        float literals, so ``from_record(json.loads(json.dumps(r)))``
        reproduces every counter and timing bit-for-bit -- the property
        the sweep checkpoints and the parallel-equivalence tests rely
        on.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_record(cls, record: dict) -> "SystemResult":
        """Rebuild a result from :meth:`to_record` output."""
        data = dict(record)
        data["dram"] = PhaseStats(**data.get("dram", {}))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SystemResult record fields: {sorted(unknown)}"
            )
        return cls(**data)


class AcceleratorSystem:
    """The skeleton every system shares: one constructor, one run loop,
    and one way to charge a phase and settle a run.

    A run builds the system's functional engine over tiles of
    :meth:`choose_tile_width`, builds the on-chip state in
    :meth:`setup`, charges each iteration trace in
    :meth:`_run_iteration`, drains per-iteration state in
    :meth:`end_iteration` and settles in :meth:`finish`.  The
    vertex-centric and edge-centric families differ only in those hooks.
    Every phase they open goes through :meth:`phase_stats`, which is
    what lets a stationary run fast-forward its repeated iterations
    (see :meth:`run`).
    """

    name = "base"
    #: the :class:`~repro.experiments.config.ExperimentScale` field that
    #: sizes this system's on-chip memory
    onchip_field = "baseline_cache_bytes"
    #: further profile fields the constructor takes as same-named kwargs
    scale_fields: tuple[str, ...] = ()
    #: multiple of the base tile width when a profile names none
    default_tile_scale = 1
    #: on-chip memory budget in bytes (set per instance in __init__)
    onchip_bytes = 4096
    #: cached random-access memory path (built by the subclass's setup);
    #: scratchpad, PIM and edge-centric conventional systems have none
    path: ConventionalMemoryPath | FineGrainedMemoryPath | None = None

    def __init__(
        self,
        dram_config: DRAMConfig | None = None,
        pipeline: PipelineConfig | None = None,
        onchip_bytes: int | None = None,
        tile_scale: int | None = None,
        layout: MemoryLayout | None = None,
        replay_capacity: int | None = None,
        tile_backing: str = "memory",
        tile_store_root=None,
    ) -> None:
        self.dram_config = dram_config if dram_config is not None else default_config()
        self.pipeline = pipeline if pipeline is not None else PipelineConfig()
        self.dram = DRAMModel(self.dram_config)
        if onchip_bytes is not None:
            self.onchip_bytes = onchip_bytes
        self.tile_scale = (
            tile_scale if tile_scale is not None else self.default_tile_scale
        )
        self.layout = layout if layout is not None else MemoryLayout()
        #: memory-path replay memo (scale-profile driven): None means
        #: REPLAY_CAPACITY_DEFAULT and 0 means no memo.  Only a
        #: stationary run (one whose iterations repeat their address
        #: streams, see :meth:`run`) builds a memo.  Systems without a
        #: cached random path simply ignore it.
        self.replay_capacity = replay_capacity
        #: tile-array backing ("memory"/"disk") plus the disk store's
        #: root; bit-identical results either way (see
        #: :mod:`repro.graph.tilestore`).  Edge-centric grids are built
        #: in memory and ignore it.
        self.tile_backing = tile_backing
        self.tile_store_root = tile_store_root
        #: the iteration fast-forward of a stationary run (see :meth:`run`):
        #: the random sides of the phases the current iteration opened,
        #: while it is recorded, and the sides of the recording still to
        #: charge, while it is fast-forwarded
        self._recording: list[RandomSide] | None = None
        self._replaying: Iterator[RandomSide] | None = None

    # ------------------------------------------------------------------
    def _stream_scale(self) -> float:
        """Stream-bandwidth derating for the no-prefetch mode (Fig. 20b)."""
        return self.pipeline.stream_bandwidth_scale(
            self.dram.latency_ns(), self.dram_config.peak_bandwidth_gbps
        )

    def effective_stream_bytes(self, nbytes: float) -> float:
        """Bytes inflated to model reduced stream bandwidth when the
        prefetcher is disabled (same bus occupancy accounting)."""
        scale = self._stream_scale()
        return nbytes / scale if scale < 1.0 else nbytes

    # -- hooks ----------------------------------------------------------
    def choose_tile_width(self, graph: CSRGraph) -> int:
        """Tile width in vertices when the run names none."""
        raise NotImplementedError

    def make_engine(self, spec: AlgorithmSpec, tile_width: int):
        """The functional engine whose iteration traces the run charges;
        it exposes ``num_tiles``, ``stationary`` and ``run_iter``."""
        raise NotImplementedError

    def setup(
        self, graph: CSRGraph, tile_width: int, replay_capacity: int | None
    ) -> None:
        """Build per-run on-chip state (caches, MSHRs); the memory
        path gets a replay memo of ``replay_capacity`` (0: none)."""

    def _run_iteration(self, trace, result: SystemResult) -> None:
        """Charge one iteration trace's phases to ``result``."""
        raise NotImplementedError

    def end_iteration(self, result: SystemResult) -> None:
        """Hook: drain per-iteration state (e.g. MSHR partials)."""

    def run_path(
        self,
        ids: np.ndarray,
        to_addrs: Callable[[np.ndarray], np.ndarray],
        rmw: bool,
        phase: PhaseAccumulator,
    ) -> None:
        """Run the random accesses to ``to_addrs(ids)`` through the
        memory path, each chunk's requests into ``phase``.  Addresses
        are materialised one chunk at a time, on the chunk boundaries
        the path uses, so they stay O(chunk) as well.  A system without
        a path keeps these accesses on chip."""
        if self.path is None:
            return
        chunk = units.CHUNK_ACCESSES
        for lo in range(0, ids.size, chunk):
            self.path.run(to_addrs(ids[lo:lo + chunk]), rmw=rmw, phase=phase)

    # -- main loop --------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        algorithm: str,
        max_iterations: int = 40,
        tile_width: int | None = None,
    ) -> SystemResult:
        spec = make_algorithm(algorithm, graph)
        if tile_width is not None and tile_width < 1:
            raise ValueError(f"tile_width must be >= 1, got {tile_width}")
        width = (
            tile_width if tile_width is not None
            else self.choose_tile_width(graph)
        )
        engine = self.make_engine(spec, width)
        result = SystemResult(
            system=self.name,
            algorithm=algorithm,
            dataset=graph.name,
            tile_width=width,
            num_tiles=engine.num_tiles,
            onchip_bytes=self.onchip_bytes,
        )
        result.dram._burst_bytes = self.dram_config.spec.burst_bytes
        # a frontier run's streams change every iteration: no memo
        self.setup(
            graph, width, self.replay_capacity if engine.stationary else 0
        )
        # A stationary run repeats its address streams every iteration,
        # so once an iteration ends in the memory state it started in,
        # so does every later one: each is charged from that iteration's
        # recording (see phase_stats) instead of simulated.
        state = self.state_digest() if engine.stationary else None
        fixed_point: tuple[list[RandomSide], tuple[int, ...]] | None = None
        for trace in engine.run_iter(max_iterations):
            if fixed_point is not None:
                self._fast_forward(trace, result, *fixed_point)
            elif state is None:
                self._run_iteration(trace, result)
                self.end_iteration(result)
            else:
                before = self.counter_vector()
                self._recording = []
                self._run_iteration(trace, result)
                self.end_iteration(result)
                sides, self._recording = self._recording, None
                start, state = state, self.state_digest()
                if state == start:
                    delta = counter_delta(self.counter_vector(), before)
                    fixed_point = (sides, delta)
            result.iterations += 1
        self.finish(result)
        return result

    def _fast_forward(
        self,
        trace,
        result: SystemResult,
        sides: list[RandomSide],
        delta: tuple[int, ...],
    ) -> None:
        """Charge a repeat of the recorded iteration: every phase closes
        its recorded random side over this trace's stream bytes, and the
        memory path, already in the state the repeat would end in, takes
        the recorded counter deltas.

        Raises:
            RuntimeError: the iteration opened fewer phases than its
                recording (:meth:`phase_stats` raises on more).
        """
        self._replaying = iter(sides)
        self._run_iteration(trace, result)
        self.end_iteration(result)
        unused = sum(1 for _ in self._replaying)
        self._replaying = None
        if unused:
            raise RuntimeError(
                f"a fast-forwarded iteration opened {len(sides) - unused} "
                f"phases; its recording has {len(sides)}"
            )
        self.counter_apply(delta)

    def state_digest(self) -> bytes:
        """Digest of the memory state an iteration starts from: the
        path's, and empty for a system without one."""
        return b"" if self.path is None else self.path.state_digest()

    def counter_vector(self) -> tuple[int, ...]:
        """The memory path's counters (empty without a path)."""
        return () if self.path is None else self.path.counter_vector()

    def counter_apply(self, delta: tuple[int, ...]) -> None:
        if self.path is not None:
            self.path.counter_apply(delta)

    def phase_stats(
        self,
        fill: Callable[[PhaseAccumulator], None],
        stream_read_bytes: float = 0.0,
        stream_write_bytes: float = 0.0,
    ) -> PhaseStats:
        """One phase: ``fill(phase)`` hands a fresh phase its random
        requests, and the phase closes over the stream bytes.  While an
        iteration is recorded, the phase's random side joins the
        recording; while one is fast-forwarded, the recording's next
        side closes over the stream bytes instead and ``fill`` does not
        run.

        Raises:
            RuntimeError: a fast-forwarded iteration opens more phases
                than its recording.
        """
        if self._replaying is not None:
            side = next(self._replaying, None)
            if side is None:
                raise RuntimeError(
                    "a fast-forwarded iteration opened more phases than "
                    "its recording"
                )
            return side.close(stream_read_bytes, stream_write_bytes)
        phase = self.dram.open_phase()
        fill(phase)
        stats = phase.close(
            stream_read_bytes=stream_read_bytes,
            stream_write_bytes=stream_write_bytes,
        )
        if self._recording is not None:
            self._recording.append(phase.random_side)
        return stats

    # ------------------------------------------------------------------
    def charge(
        self, result: SystemResult, phase: PhaseStats, compute_ns: float = 0.0
    ) -> None:
        """Add one closed phase to ``result``: compute overlaps the
        phase's memory time, so the pair costs the longer of the two,
        and the phase's counters merge into ``result.dram``."""
        result.compute_ns += compute_ns
        result.memory_ns += phase.time_ns
        result.total_ns += max(compute_ns, phase.time_ns)
        phase.time_ns = 0.0  # time already accounted; merge counters
        result.dram.merge(phase)

    def finish(self, result: SystemResult) -> None:
        """End of run: write the path's on-chip dirty state back in one
        last phase and settle the run's counters.

        Streams are always useful data (topology/property bytes
        consumed).  A cached path adds the words its cache actually
        requested, its hit/miss counts and its random fill/write-back
        bytes; a fine-grained path adds its MSHR's FIM-op counts.
        """
        result.useful_bytes += result.stream_read_bytes + result.stream_write_bytes
        if self.path is None:
            return
        self.charge(result, self.phase_stats(self.path.flush))
        cache = self.path.cache
        if isinstance(cache, ConventionalCache) and cache.line_bytes > 8:
            result.useful_bytes += cache.useful_fill_bytes + cache.useful_wb_bytes
        else:
            # Fine-grained designs fetch/write only requested words; FIM
            # offset bursts are protocol overhead, never useful payload.
            result.useful_bytes += (
                cache.stats.fill_bytes + cache.stats.writeback_bytes
            )
        result.cache_hits = cache.stats.hits
        result.cache_misses = cache.stats.misses
        result.cache_accesses = cache.stats.accesses
        result.random_read_bytes += cache.stats.fill_bytes
        result.random_write_bytes += cache.stats.writeback_bytes
        if isinstance(self.path, FineGrainedMemoryPath):
            result.mshr_ops = self.path.mshr.stats.total_ops
            result.mshr_forwarded = self.path.mshr.stats.forwarded_reads
