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


@dataclass
class _Recording:
    """One live iteration of a stationary run, as the next iteration
    compares against and replays it: for each phase, the memory path's
    digest and counters at the phase start and the phase's resolved
    random side; at the end, the path's snapshot and counters."""

    digests: list[bytes] = field(default_factory=list)
    counters: list[tuple[int, ...]] = field(default_factory=list)
    sides: list[RandomSide] = field(default_factory=list)
    #: the phase from which the iteration repeated the previous one
    match: int | None = None
    end_state: object = None
    end_counters: tuple[int, ...] = ()


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
        #: stream-bandwidth derating for the no-prefetch mode (Fig. 20b);
        #: both configs are frozen, so it is fixed per system
        self._stream_scale = self.pipeline.stream_bandwidth_scale(
            self.dram.latency_ns(), self.dram_config.peak_bandwidth_gbps
        )
        #: tile-array backing ("memory"/"disk") plus the disk store's
        #: root; bit-identical results either way (see
        #: :mod:`repro.graph.tilestore`).  Edge-centric grids are built
        #: in memory and ignore it.
        self.tile_backing = tile_backing
        self.tile_store_root = tile_store_root
        #: the fast-forward of a stationary run (see :meth:`run`): the
        #: recording of the live iteration and of the one before it,
        #: and the recorded sides still to charge once a phase repeats
        self._recording: _Recording | None = None
        self._previous: _Recording | None = None
        self._replaying: Iterator[RandomSide] | None = None

    # ------------------------------------------------------------------
    def effective_stream_bytes(self, nbytes: float) -> float:
        """Bytes inflated to model reduced stream bandwidth when the
        prefetcher is disabled (same bus occupancy accounting)."""
        scale = self._stream_scale
        return nbytes / scale if scale < 1.0 else nbytes

    # -- hooks ----------------------------------------------------------
    def choose_tile_width(self, graph: CSRGraph) -> int:
        """Tile width in vertices when the run names none."""
        raise NotImplementedError

    def make_engine(self, spec: AlgorithmSpec, tile_width: int):
        """The functional engine whose iteration traces the run charges;
        it exposes ``num_tiles``, ``stationary`` and ``run_iter``."""
        raise NotImplementedError

    def setup(self, graph: CSRGraph, tile_width: int) -> None:
        """Build per-run on-chip state (caches, MSHRs)."""

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
        self.setup(graph, width)
        # A stationary run repeats its address streams every iteration.
        # So once a phase starts in the memory state the same phase of
        # the previous iteration started in, the rest of the iteration
        # repeats that one's, and every later iteration repeats this
        # one: they are charged from the recordings (see phase_stats).
        previous: _Recording | None = None
        repeat: tuple[list[RandomSide], tuple[int, ...]] | None = None
        for trace in engine.run_iter(max_iterations):
            if repeat is not None:
                sides, delta = repeat
                self._iterate(trace, result, iter(sides))
                self.counter_apply(delta)
            elif engine.stationary:
                previous, repeat = self._record(trace, result, previous)
            else:
                self._iterate(trace, result)
            result.iterations += 1
        self.finish(result)
        return result

    def _iterate(
        self,
        trace,
        result: SystemResult,
        replaying: Iterator[RandomSide] | None = None,
    ) -> None:
        """Charge one iteration, its phases from ``replaying`` if given
        (or from the point :meth:`phase_stats` catches up).

        Raises:
            RuntimeError: the iteration opened fewer phases than the
                recording it replays (:meth:`phase_stats` raises on
                more).
        """
        self._replaying = replaying
        self._run_iteration(trace, result)
        self.end_iteration(result)
        replaying, self._replaying = self._replaying, None
        if replaying is not None and next(replaying, None) is not None:
            raise RuntimeError(
                "a replayed iteration opened fewer phases than its recording"
            )

    def _record(
        self, trace, result: SystemResult, previous: _Recording | None
    ) -> tuple[_Recording | None, tuple | None]:
        """Charge one iteration of a stationary run, recording each live
        phase, until a phase starts in the state the same phase of
        ``previous`` started in; the rest replays ``previous``.

        Returns ``(recording, None)`` for an iteration that ran live to
        its end, and ``(None, (sides, delta))`` for one that caught up:
        the path is then in the state ``previous`` ended in, and every
        later iteration repeats this one's sides and counter delta.
        """
        start = self.counter_vector()
        recording = self._recording = _Recording()
        self._previous = previous
        try:
            self._iterate(trace, result)
        finally:
            self._recording = self._previous = None
        match = recording.match
        if match is None:
            recording.end_state = self.state_snapshot()
            recording.end_counters = self.counter_vector()
            return recording, None
        self.state_restore(previous.end_state)
        self.counter_apply(
            counter_delta(previous.end_counters, previous.counters[match])
        )
        sides = recording.sides + previous.sides[match:]
        return None, (sides, counter_delta(self.counter_vector(), start))

    def state_digest(self) -> bytes:
        """Digest of the memory state a phase starts from: the path's,
        and empty for a system without one."""
        return b"" if self.path is None else self.path.state_digest()

    def state_snapshot(self):
        """A copy of the memory path's state (None without a path)."""
        return None if self.path is None else self.path.state_snapshot()

    def state_restore(self, snap) -> None:
        if self.path is not None:
            self.path.state_restore(snap)

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
        requests, and the phase closes over the stream bytes.

        While an iteration is recorded, the phase first compares the
        memory state with the one the same phase of the previous
        iteration started in.  Until they match, it runs live and joins
        the recording with its start state and random side; from the
        match on, and while an iteration is fast-forwarded, the
        recording's next side closes over the stream bytes instead and
        ``fill`` does not run.

        Raises:
            RuntimeError: a replayed iteration opens more phases than
                its recording.
        """
        recording = self._recording
        if recording is not None and self._replaying is None:
            state = self.state_digest()
            index = len(recording.sides)
            previous = self._previous
            if (
                previous is not None
                and index < len(previous.digests)
                and previous.digests[index] == state
            ):
                recording.match = index
                self._replaying = iter(previous.sides[index:])
            else:
                recording.digests.append(state)
                recording.counters.append(self.counter_vector())
        if self._replaying is not None:
            side = next(self._replaying, None)
            if side is None:
                raise RuntimeError(
                    "a replayed iteration opened more phases than its "
                    "recording"
                )
            return side.close(stream_read_bytes, stream_write_bytes)
        phase = self.dram.open_phase()
        fill(phase)
        stats = phase.close(
            stream_read_bytes=stream_read_bytes,
            stream_write_bytes=stream_write_bytes,
        )
        if recording is not None:
            recording.sides.append(phase.random_side)
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
