"""The six vertex-centric accelerator systems of Fig. 10.

All systems share one skeleton: the functional VCM engine produces
per-tile traces; the system charges the prefetcher streams (topology,
sequential properties, apply streams) and runs the random temporary-
property accesses through its particular on-chip structure; the DRAM
phase evaluator turns the resulting physical requests into time.

See the module docstring of :mod:`repro.accel` for the one-line
characterisation of each system.
"""

from __future__ import annotations

import numpy as np

from repro.accel.base import AcceleratorSystem, SystemResult
from repro.accel.layout import (
    EDGE_BYTES,
    MemoryLayout,
    PROP_BYTES,
    PTR_BYTES,
)
from repro.accel.pipeline import PipelineConfig
from repro.algorithms import make_algorithm
from repro.algorithms.vcm import IterationTrace, TileTrace, VertexCentricEngine
from repro.cache.base import BaseCache
from repro.cache.conventional import ConventionalCache
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import ConventionalMemoryPath, FineGrainedMemoryPath
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.spec import DRAMConfig
from repro.graph.csr import CSRGraph
from repro.graph.partition import perfect_tile_width
from repro.utils.units import ceil_div


class _VCMSystem(AcceleratorSystem):
    """Skeleton shared by all vertex-centric systems."""

    #: default multiple of the perfect tile width (1 = perfect tiling)
    default_tile_scale: int = 1
    #: on-chip memory budget in bytes (set per system in __init__)
    onchip_bytes: int = 4096
    #: cached random-access memory path (built in :meth:`setup`); the
    #: scratchpad and PIM systems have none
    path: ConventionalMemoryPath | FineGrainedMemoryPath | None = None

    def __init__(
        self,
        dram_config: DRAMConfig | None = None,
        pipeline: PipelineConfig | None = None,
        onchip_bytes: int | None = None,
        tile_scale: int | None = None,
        layout: MemoryLayout | None = None,
        chunk_size: int | None = None,
        replay_capacity: int | None = None,
        tile_backing: str = "memory",
        tile_store_root=None,
    ) -> None:
        super().__init__(dram_config, pipeline)
        if onchip_bytes is not None:
            self.onchip_bytes = onchip_bytes
        self.tile_scale = (
            tile_scale if tile_scale is not None else self.default_tile_scale
        )
        self.layout = layout if layout is not None else MemoryLayout()
        #: memory-path knobs (scale-profile driven): chunk_size None
        #: runs whole-tile batches; replay_capacity None means
        #: REPLAY_CAPACITY_DEFAULT and 0 means no memo.  SPM/PIM
        #: systems have no cached random path, so they simply ignore
        #: them.
        self.chunk_size = chunk_size
        self.replay_capacity = replay_capacity
        #: tile-array backing ("memory"/"disk") plus the disk store's
        #: root; bit-identical results either way (see
        #: :mod:`repro.graph.tilestore`)
        self.tile_backing = tile_backing
        self.tile_store_root = tile_store_root

    # -- hooks ----------------------------------------------------------
    def choose_tile_width(self, graph: CSRGraph) -> int:
        width = perfect_tile_width(graph.num_vertices, self.onchip_bytes)
        return min(graph.num_vertices, width * self.tile_scale)

    def setup(self, graph: CSRGraph, tile_width: int) -> None:
        """Build per-run on-chip state (caches, MSHRs)."""

    def random_access_phase(self, tile: TileTrace, result: SystemResult) -> dict:
        """Run the tile's random accesses; returns the keyword arguments
        of the tile phase's last :meth:`repro.dram.system.PhaseAccumulator.add`
        (addrs, is_write, fim_ops, internal_mask, loose_*_bursts), or an
        empty dict when there is nothing left to add.  A chunked memory
        path has already drained every chunk into the phase."""
        raise NotImplementedError

    def end_iteration(self, result: SystemResult) -> None:
        """Hook: drain per-iteration state (e.g. MSHR partials)."""

    def finish(self, result: SystemResult) -> None:
        """Hook: final write-back of on-chip dirty state."""

    # -- random accesses through the memory path --------------------------
    def _run_random_ids(self, ids: np.ndarray, rmw: bool) -> None:
        """Feed vertex ids through the path, materialising the address
        array per chunk (O(chunk) instead of O(tile) temporaries).  The
        outer split lands on the same chunk boundaries the path would
        use internally, so the produced streams are identical."""
        path = self.path
        chunk = path.chunk_size
        if chunk is None or ids.size <= chunk:
            path.run(self.layout.vtemp_addrs(ids), rmw=rmw)
            return
        for lo in range(0, ids.size, chunk):
            path.run(self.layout.vtemp_addrs(ids[lo:lo + chunk]), rmw=rmw)

    # -- traffic accounting ----------------------------------------------
    def stream_bytes_for_tile(
        self, tile: TileTrace, n_active: int
    ) -> tuple[float, float]:
        """(read, write) prefetcher stream bytes for one tile pass."""
        reads = (
            n_active * PTR_BYTES               # per-tile row index walk
            + tile.num_edges * EDGE_BYTES      # column indices + weights
            + tile.active_sources * PROP_BYTES  # sequential Vprop[u]
            + tile.apply_dst.size * PROP_BYTES  # apply reads Vprop[v]
        )
        writes = tile.changed_dst.size * PROP_BYTES  # apply writes Vprop[v]
        return float(reads), float(writes)

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
        engine = VertexCentricEngine(
            spec,
            width,
            edge_chunk=self.chunk_size,
            tile_backing=self.tile_backing,
            tile_store_root=self.tile_store_root,
        )
        result = SystemResult(
            system=self.name,
            algorithm=algorithm,
            dataset=graph.name,
            tile_width=width,
            num_tiles=engine.tiled.num_tiles,
            onchip_bytes=self.onchip_bytes,
        )
        result.dram._burst_bytes = self.dram_config.spec.burst_bytes
        self.setup(graph, width)
        for trace in engine.run_iter(max_iterations):
            self._run_iteration(trace, result)
            self.end_iteration(result)
            result.iterations += 1
        self.finish(result)
        return result

    def _run_iteration(self, trace: IterationTrace, result: SystemResult) -> None:
        n_active = trace.active_vertices
        for tile in trace.tiles:
            if (
                n_active == 0
                and tile.num_edges == 0
                and tile.apply_dst.size == 0
            ):
                continue
            stream_rd, stream_wr = self.stream_bytes_for_tile(tile, n_active)
            result.stream_read_bytes += stream_rd
            result.stream_write_bytes += stream_wr
            # a chunked memory path drains each processed chunk into the
            # tile's phase, so DRAM-phase temporaries stay O(chunk) like
            # the tile stream itself
            acc = self.dram.open_phase()
            path = self.path
            if path is not None:
                path.phase_sink = acc
            try:
                tail_kwargs = self.random_access_phase(tile, result)
            finally:
                if path is not None:
                    path.phase_sink = None
            if tail_kwargs:
                acc.add(**tail_kwargs)
            phase = acc.close(
                stream_read_bytes=self.effective_stream_bytes(stream_rd),
                stream_write_bytes=stream_wr,
            )
            compute = self.pipeline.compute_ns_for_tile(
                tile.edge_dst, int(tile.apply_dst.size)
            )
            result.compute_ns += compute
            result.memory_ns += phase.time_ns
            result.total_ns += max(compute, phase.time_ns)
            phase.time_ns = 0.0  # time already accounted; merge counters
            result.dram.merge(phase)
            result.edges_processed += tile.num_edges
            result.vertex_applies += int(tile.apply_dst.size)
        # Streams are always useful data (topology/property bytes consumed).
        # Random-access usefulness is settled by the caches in finish().

    # -- final accounting -------------------------------------------------
    def settle_useful_bytes(
        self, result: SystemResult, cache: BaseCache | None
    ) -> None:
        result.useful_bytes += result.stream_read_bytes + result.stream_write_bytes
        if cache is None:
            return
        if isinstance(cache, ConventionalCache) and cache.line_bytes > 8:
            result.useful_bytes += cache.useful_fill_bytes + cache.useful_wb_bytes
        else:
            # Fine-grained designs fetch/write only requested words.
            result.useful_bytes += (
                cache.stats.fill_bytes + cache.stats.writeback_bytes
            )
        result.cache_hits = cache.stats.hits
        result.cache_misses = cache.stats.misses
        result.cache_accesses = cache.stats.accesses
        result.random_read_bytes += cache.stats.fill_bytes
        result.random_write_bytes += cache.stats.writeback_bytes


# ---------------------------------------------------------------------------
# Scratchpad baselines
# ---------------------------------------------------------------------------
class GraphicionadoSystem(_VCMSystem):
    """Graphicionado (MICRO'16): scratchpad Vtemp, perfect tiling, and an
    apply sweep over every vertex of the tile regardless of activity."""

    name = "Graphicionado"
    default_tile_scale = 1

    def stream_bytes_for_tile(self, tile, n_active):
        reads = (
            n_active * PTR_BYTES
            + tile.num_edges * EDGE_BYTES
            + tile.active_sources * PROP_BYTES
            + tile.width * PROP_BYTES  # applies the whole tile
        )
        writes = tile.changed_dst.size * PROP_BYTES
        return float(reads), float(writes)

    def random_access_phase(self, tile, result):
        # All random traffic lands in the scratchpad: no DRAM requests.
        return {}

    def _run_iteration(self, trace, result):
        super()._run_iteration(trace, result)
        # The apply sweep also costs compute for untouched vertices.
        extra = sum(t.width - t.apply_dst.size for t in trace.tiles)
        result.compute_ns += extra / self.pipeline.lanes

    def finish(self, result):
        self.settle_useful_bytes(result, None)


class GraphDynsSPMSystem(_VCMSystem):
    """GraphDyns with scratchpad (Sec. VII-A): perfect tiling, sparse apply."""

    name = "GraphDyns (SPM)"
    default_tile_scale = 1

    def random_access_phase(self, tile, result):
        return {}

    def finish(self, result):
        self.settle_useful_bytes(result, None)


# ---------------------------------------------------------------------------
# Cache-based baseline
# ---------------------------------------------------------------------------
class GraphDynsCacheSystem(_VCMSystem):
    """GraphDyns with a conventional 64 B cache for Vtemp (the paper's
    reference baseline; all speedups are normalised to it)."""

    name = "GraphDyns (Cache)"
    default_tile_scale = 2

    def __init__(self, *args, cache_ways: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cache_ways = cache_ways

    def setup(self, graph, tile_width):
        cache = ConventionalCache(
            self.onchip_bytes, ways=self.cache_ways, line_bytes=64
        )
        self.path = ConventionalMemoryPath(
            cache,
            replay_capacity=self.replay_capacity,
            chunk_size=self.chunk_size,
        )

    def random_access_phase(self, tile, result):
        self._run_random_ids(tile.edge_dst, rmw=True)
        if tile.apply_dst.size:
            self._run_random_ids(tile.apply_dst, rmw=True)
        addrs, writes = self.path.drain()
        return {"addrs": addrs, "is_write": writes}

    def finish(self, result):
        self.path.flush()
        addrs, writes = self.path.drain()
        if addrs.size:
            phase = self.dram.phase(addrs=addrs, is_write=writes)
            result.memory_ns += phase.time_ns
            result.total_ns += phase.time_ns
            phase.time_ns = 0.0
            result.dram.merge(phase)
        self.settle_useful_bytes(result, self.path.cache)


# ---------------------------------------------------------------------------
# Fine-grained memory systems (NMP and Piccolo)
# ---------------------------------------------------------------------------
class _FineGrainedSystem(_VCMSystem):
    """Shared logic for systems built on the collection-extended MSHR."""

    rank_level = False
    default_tile_scale = 8

    def __init__(
        self,
        *args,
        cache_ways: int = 8,
        mshr_entries: int = 64,
        fg_tag_bits: int = 4,
        cache_factory=None,
        way_partition: str = "equal",
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if way_partition not in ("equal", "naive"):
            raise ValueError("way_partition must be 'equal' or 'naive'")
        self.cache_ways = cache_ways
        self.mshr_entries = mshr_entries
        self.fg_tag_bits = fg_tag_bits
        self.cache_factory = cache_factory
        self.way_partition = way_partition

    def make_cache(self) -> BaseCache:
        if self.cache_factory is not None:
            return self.cache_factory(self.onchip_bytes)
        return PiccoloCache(
            self.onchip_bytes,
            ways=self.cache_ways,
            fg_tag_bits=self.fg_tag_bits,
        )

    def setup(self, graph, tile_width):
        cache = self.make_cache()
        if isinstance(cache, PiccoloCache):
            if self.way_partition == "naive":
                # No partitioning: a tag never claims a second way --
                # Sec. V-B's failure mode ("any data covered by a single
                # tag will occupy only up to one way").
                cache.set_way_quota(cache.ways)
            else:
                # Equal way partitioning across the tags the tile spans
                # (Sec. V-B: the tile range pre-identifies the tag list).
                windows = ceil_div(tile_width * PROP_BYTES, cache.window_bytes)
                cache.set_way_quota(max(1, ceil_div(windows, cache.num_sets)))
        mshr = CollectionExtendedMSHR(
            self.dram.mapper,
            num_entries=self.mshr_entries,
            items_per_op=self.dram_config.fim_items_per_op,
            rank_level=self.rank_level,
        )
        self.path = FineGrainedMemoryPath(
            cache,
            mshr,
            replay_capacity=self.replay_capacity,
            chunk_size=self.chunk_size,
        )

    def random_access_phase(self, tile, result):
        self._run_random_ids(tile.edge_dst, rmw=True)
        if tile.apply_dst.size:
            self._run_random_ids(tile.apply_dst, rmw=True)
        fim_ops, addrs, writes = self.path.drain()
        return {"addrs": addrs, "is_write": writes, "fim_ops": fim_ops}

    def end_iteration(self, result):
        # Partially-filled collections are evicted at iteration boundaries.
        pending = self.path.mshr.flush()
        if pending:
            phase = self.dram.phase(fim_ops=pending)
            result.memory_ns += phase.time_ns
            result.total_ns += phase.time_ns
            phase.time_ns = 0.0
            result.dram.merge(phase)

    def finish(self, result):
        self.path.flush()
        fim_ops, addrs, writes = self.path.drain()
        if fim_ops or addrs.size:
            phase = self.dram.phase(
                addrs=addrs, is_write=writes, fim_ops=fim_ops
            )
            result.memory_ns += phase.time_ns
            result.total_ns += phase.time_ns
            phase.time_ns = 0.0
            result.dram.merge(phase)
        self.settle_useful_bytes(result, self.path.cache)
        # FIM offset bursts are protocol overhead, never useful payload.
        result.mshr_ops = self.path.mshr.stats.total_ops
        result.mshr_forwarded = self.path.mshr.stats.forwarded_reads


class NMPSystem(_FineGrainedSystem):
    """Near-memory processing baseline: the buffer chip on the DIMM does
    the scatter/gather, so internal accesses serialise at rank level
    (Sec. VII-A, similar to AxDIMM)."""

    name = "NMP"
    rank_level = True
    default_tile_scale = 4


class PiccoloSystem(_FineGrainedSystem):
    """The full Piccolo system: Piccolo-cache + collection-extended MSHR
    + in-bank FIM scatter/gather."""

    name = "Piccolo"
    rank_level = False
    default_tile_scale = 8


# ---------------------------------------------------------------------------
# PIM baseline
# ---------------------------------------------------------------------------
class PIMSystem(_VCMSystem):
    """Processing-in-memory baseline (similar to GraphPIM): the host
    streams topology and source properties and ships one update command
    per edge; Reduce/Apply execute near-bank.  No cache, no tiling --
    the design cannot exploit on-chip locality (Sec. VII-C)."""

    name = "PIM"

    def choose_tile_width(self, graph):
        return graph.num_vertices  # PIM does not tile

    def random_access_phase(self, tile, result):
        layout = self.layout
        # HMC-style atomic offload: one non-cacheable command burst per
        # edge (bank RMW executes internally) plus a completion response
        # on the return path (bus-only).
        addrs = layout.vtemp_addrs(tile.edge_dst)
        writes = np.ones(addrs.size, dtype=bool)
        result.dram.internal_words += int(addrs.size)  # in-bank RMW
        result.random_write_bytes += addrs.size * 8.0
        # Apply runs near-bank: Vtemp/Vprop reads and writes stay internal.
        result.dram.internal_words += 2 * int(tile.apply_dst.size)
        return {
            "addrs": addrs,
            "is_write": writes,
            "loose_read_bursts": int(addrs.size),  # completion responses
        }

    def stream_bytes_for_tile(self, tile, n_active):
        reads = (
            n_active * PTR_BYTES
            + tile.num_edges * EDGE_BYTES
            + tile.active_sources * PROP_BYTES
        )
        # Apply is executed in memory: no vprop streams cross the bus.
        return float(reads), 0.0

    def finish(self, result):
        self.settle_useful_bytes(result, None)
        # The per-edge command bursts carry 8 useful bytes of 64.
        result.useful_bytes += result.random_write_bytes


SYSTEMS: dict[str, type[_VCMSystem]] = {
    "Graphicionado": GraphicionadoSystem,
    "GraphDyns (SPM)": GraphDynsSPMSystem,
    "GraphDyns (Cache)": GraphDynsCacheSystem,
    "NMP": NMPSystem,
    "PIM": PIMSystem,
    "Piccolo": PiccoloSystem,
}

#: the systems built on the collection-extended MSHR, the only ones
#: whose fine-grained cache a Fig. 11 ``cache_design`` can replace
FINE_GRAINED_SYSTEMS = tuple(
    name for name, cls in SYSTEMS.items() if issubclass(cls, _FineGrainedSystem)
)

#: paper ordering of the Fig. 10 bars
SYSTEM_ORDER = (
    "Graphicionado",
    "GraphDyns (SPM)",
    "GraphDyns (Cache)",
    "NMP",
    "PIM",
    "Piccolo",
)


def make_system(name: str, **kwargs) -> _VCMSystem:
    """Instantiate a named system with keyword overrides."""
    try:
        cls = SYSTEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None
    return cls(**kwargs)
