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
from repro.dram.system import PhaseAccumulator
from repro.graph.csr import CSRGraph
from repro.graph.partition import perfect_tile_width
from repro.utils import units
from repro.utils.units import ceil_div


class _VCMSystem(AcceleratorSystem):
    """Skeleton shared by all vertex-centric systems."""

    #: default multiple of the perfect tile width (1 = perfect tiling)
    default_tile_scale: int = 1
    #: on-chip memory budget in bytes (set per system in __init__)
    onchip_bytes: int = 4096

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
        super().__init__(dram_config, pipeline)
        if onchip_bytes is not None:
            self.onchip_bytes = onchip_bytes
        self.tile_scale = (
            tile_scale if tile_scale is not None else self.default_tile_scale
        )
        self.layout = layout if layout is not None else MemoryLayout()
        #: memory-path replay memo (scale-profile driven): None means
        #: REPLAY_CAPACITY_DEFAULT and 0 means no memo.  Only a
        #: stationary run (one whose iterations repeat their address
        #: streams, see :meth:`run`) builds a memo.  SPM/PIM systems
        #: have no cached random path, so they simply ignore it.
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

    def setup(
        self, graph: CSRGraph, tile_width: int, replay_capacity: int | None
    ) -> None:
        """Build per-run on-chip state (caches, MSHRs); the memory
        path gets a replay memo of ``replay_capacity`` (0: none)."""

    def random_access_phase(
        self, tile: TileTrace, result: SystemResult, phase: PhaseAccumulator
    ) -> None:
        """Run the tile's random Vtemp accesses (reduce, then apply)
        through the memory path, each chunk's requests into ``phase``.
        A scratchpad system has no path: its Vtemp never leaves the
        chip."""
        if self.path is None:
            return
        # addresses are materialised one chunk at a time, on the chunk
        # boundaries the path uses, so they stay O(chunk) as well
        chunk = units.CHUNK_ACCESSES
        for ids in (tile.edge_dst, tile.apply_dst):
            for lo in range(0, ids.size, chunk):
                addrs = self.layout.vtemp_addrs(ids[lo:lo + chunk])
                self.path.run(addrs, rmw=True, phase=phase)

    def end_iteration(self, result: SystemResult) -> None:
        """Hook: drain per-iteration state (e.g. MSHR partials)."""

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
        # a frontier run's streams change every iteration: no memo
        self.setup(
            graph, width, self.replay_capacity if engine.stationary else 0
        )
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
            phase = self.dram.open_phase()
            self.random_access_phase(tile, result, phase)
            compute = self.pipeline.compute_ns_for_tile(
                tile.edge_dst, int(tile.apply_dst.size)
            )
            self.charge(
                result,
                phase.close(
                    stream_read_bytes=self.effective_stream_bytes(stream_rd),
                    stream_write_bytes=stream_wr,
                ),
                compute,
            )
            result.edges_processed += tile.num_edges
            result.vertex_applies += int(tile.apply_dst.size)


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

    def _run_iteration(self, trace, result):
        super()._run_iteration(trace, result)
        # The apply sweep also costs compute for untouched vertices.
        extra = sum(t.width - t.apply_dst.size for t in trace.tiles)
        result.compute_ns += extra / self.pipeline.lanes


class GraphDynsSPMSystem(_VCMSystem):
    """GraphDyns with scratchpad (Sec. VII-A): perfect tiling, sparse apply."""

    name = "GraphDyns (SPM)"
    default_tile_scale = 1


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

    def setup(self, graph, tile_width, replay_capacity):
        cache = ConventionalCache(
            self.onchip_bytes, ways=self.cache_ways, line_bytes=64
        )
        self.path = ConventionalMemoryPath(cache, replay_capacity=replay_capacity)


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

    def setup(self, graph, tile_width, replay_capacity):
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
            cache, mshr, replay_capacity=replay_capacity
        )

    def end_iteration(self, result):
        # Partially-filled collections are evicted at iteration boundaries.
        pending = self.path.mshr.flush()
        if pending:
            self.charge(result, self.dram.phase(fim_ops=pending))


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

    def random_access_phase(self, tile, result, phase):
        # HMC-style atomic offload: one non-cacheable command burst per
        # edge (bank RMW executes internally) plus a completion response
        # on the return path (bus-only).
        addrs = self.layout.vtemp_addrs(tile.edge_dst)
        result.dram.internal_words += int(addrs.size)  # in-bank RMW
        result.random_write_bytes += addrs.size * 8.0
        # Apply runs near-bank: Vtemp/Vprop reads and writes stay internal.
        result.dram.internal_words += 2 * int(tile.apply_dst.size)
        phase.add(
            addrs=addrs,
            is_write=np.ones(addrs.size, dtype=bool),
            loose_read_bursts=int(addrs.size),  # completion responses
        )

    def stream_bytes_for_tile(self, tile, n_active):
        reads = (
            n_active * PTR_BYTES
            + tile.num_edges * EDGE_BYTES
            + tile.active_sources * PROP_BYTES
        )
        # Apply is executed in memory: no vprop streams cross the bus.
        return float(reads), 0.0

    def finish(self, result):
        super().finish(result)
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
