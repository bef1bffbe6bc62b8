"""The accelerator systems: the six vertex-centric systems of Fig. 10
and the two edge-centric systems of Fig. 19a.

All systems share one skeleton (:class:`~repro.accel.base.AcceleratorSystem`):
a functional engine produces per-tile or per-block traces; the system
charges the prefetcher streams (topology, sequential properties, apply
streams) and runs the random property accesses through its particular
on-chip structure; the DRAM phase evaluator turns the resulting physical
requests into time.

See the module docstring of :mod:`repro.accel` for the one-line
characterisation of each system.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.accel.base import AcceleratorSystem, SystemResult
from repro.accel.layout import EDGE_BYTES, PROP_BYTES, PTR_BYTES
from repro.algorithms.ecm import BlockTrace, ECIterationTrace, EdgeCentricEngine
from repro.algorithms.vcm import IterationTrace, TileTrace, VertexCentricEngine
from repro.cache.base import BaseCache
from repro.cache.conventional import ConventionalCache
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import ConventionalMemoryPath, FineGrainedMemoryPath
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.system import PhaseAccumulator
from repro.graph.csr import CSRGraph
from repro.graph.partition import perfect_tile_width
from repro.utils import units
from repro.utils.units import ceil_div


class _VCMSystem(AcceleratorSystem):
    """Vertex-centric systems: destination tiles of the VCM engine, each
    charged as one phase."""

    def choose_tile_width(self, graph: CSRGraph) -> int:
        width = perfect_tile_width(graph.num_vertices, self.onchip_bytes)
        return min(graph.num_vertices, width * self.tile_scale)

    def make_engine(self, spec, tile_width: int) -> VertexCentricEngine:
        return VertexCentricEngine(
            spec,
            tile_width,
            tile_backing=self.tile_backing,
            tile_store_root=self.tile_store_root,
        )

    def random_access_phase(
        self, tile: TileTrace, phase: PhaseAccumulator
    ) -> None:
        """Run the tile's random Vtemp accesses (reduce, then apply)
        through the memory path, each chunk's requests into ``phase``.
        A scratchpad system has no path: its Vtemp never leaves the
        chip."""
        for ids in (tile.edge_dst, tile.apply_dst):
            self.run_path(ids, self.layout.vtemp_addrs, True, phase)

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
            compute = self.pipeline.compute_ns_for_tile(
                tile.edge_dst, int(tile.apply_dst.size)
            )
            self.charge(
                result,
                self.phase_stats(
                    partial(self.random_access_phase, tile),
                    self.effective_stream_bytes(stream_rd),
                    stream_wr,
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
    onchip_field = "spm_bytes"

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
    onchip_field = "spm_bytes"


# ---------------------------------------------------------------------------
# Cache-based baseline
# ---------------------------------------------------------------------------
class GraphDynsCacheSystem(_VCMSystem):
    """GraphDyns with a conventional 64 B cache for Vtemp (the paper's
    reference baseline; all speedups are normalised to it)."""

    name = "GraphDyns (Cache)"
    scale_fields = ("cache_ways",)
    default_tile_scale = 2

    def __init__(self, *args, cache_ways: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cache_ways = cache_ways

    def setup(self, graph, tile_width):
        cache = ConventionalCache(
            self.onchip_bytes, ways=self.cache_ways, line_bytes=64
        )
        self.path = ConventionalMemoryPath(cache)


# ---------------------------------------------------------------------------
# Fine-grained memory systems (NMP, Piccolo and EC Piccolo)
# ---------------------------------------------------------------------------
class _FineGrainedSystem(AcceleratorSystem):
    """Shared logic for systems built on the collection-extended MSHR:
    the cache and MSHR of :meth:`setup` and the iteration-end flush."""

    rank_level = False
    scale_fields = ("cache_ways", "mshr_entries", "fg_tag_bits")
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
        self.path = FineGrainedMemoryPath(cache, mshr)

    def end_iteration(self, result):
        # Partially-filled collections are evicted at iteration
        # boundaries (an empty phase when none is pending charges 0).
        self.charge(result, self.phase_stats(self._flush_mshr))

    def _flush_mshr(self, phase: PhaseAccumulator) -> None:
        phase.add(fim_ops=self.path.mshr.flush())


class NMPSystem(_FineGrainedSystem, _VCMSystem):
    """Near-memory processing baseline: the buffer chip on the DIMM does
    the scatter/gather, so internal accesses serialise at rank level
    (Sec. VII-A, similar to AxDIMM)."""

    name = "NMP"
    rank_level = True
    default_tile_scale = 4


class PiccoloSystem(_FineGrainedSystem, _VCMSystem):
    """The full Piccolo system: Piccolo-cache + collection-extended MSHR
    + in-bank FIM scatter/gather."""

    name = "Piccolo"
    onchip_field = "piccolo_cache_bytes"


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

    def _run_iteration(self, trace, result):
        super()._run_iteration(trace, result)
        # The in-memory work is charged off the trace, outside the
        # phases, so a fast-forwarded iteration charges it too.
        for tile in trace.tiles:
            edges = tile.edge_dst.size
            result.dram.internal_words += edges  # in-bank RMW
            result.random_write_bytes += edges * 8.0
            # Apply runs near-bank: Vtemp/Vprop reads and writes stay
            # internal.
            result.dram.internal_words += 2 * int(tile.apply_dst.size)

    def random_access_phase(self, tile, phase):
        # HMC-style atomic offload: one non-cacheable command burst per
        # edge (bank RMW executes internally) plus a completion response
        # on the return path (bus-only), added one chunk at a time.
        chunk = units.CHUNK_ACCESSES
        for lo in range(0, tile.edge_dst.size, chunk):
            addrs = self.layout.vtemp_addrs(tile.edge_dst[lo:lo + chunk])
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


# ---------------------------------------------------------------------------
# Edge-centric systems (Sec. VII-H, Fig. 19a)
# ---------------------------------------------------------------------------
class _ECSystem(AcceleratorSystem):
    """Edge-centric systems (ForeGraph/Fabgraph-style): the engine streams
    the edge list in grid blocks while the current source-property tile
    and destination-temporary tile stay on chip.  Every block is one
    phase, and so is every destination column's apply."""

    def choose_tile_width(self, graph: CSRGraph) -> int:
        """Source and destination tile width: each tile gets half of
        the on-chip budget."""
        half = max(1, self.onchip_bytes // 2 // PROP_BYTES)
        return min(graph.num_vertices, half * self.tile_scale)

    def make_engine(self, spec, tile_width: int) -> EdgeCentricEngine:
        return EdgeCentricEngine(spec, tile_width, tile_width)

    def _run_iteration(
        self, trace: ECIterationTrace, result: SystemResult
    ) -> None:
        for block in trace.blocks:
            stream_rd = block.num_edges * EDGE_BYTES
            if self.path is None:
                # scratchpad tiles: every block reloads its source tile
                stream_rd += (block.src_hi - block.src_lo) * PROP_BYTES
            result.stream_read_bytes += stream_rd
            result.edges_processed += block.num_edges
            self.charge(
                result,
                self.phase_stats(
                    partial(self.block_access_phase, block),
                    self.effective_stream_bytes(stream_rd),
                ),
                self.pipeline.compute_ns(block.num_edges, 0),
            )
        for apply_dst in trace.apply_dst:
            if apply_dst.size == 0:
                continue
            # Column settle: apply reads and writes the tile's Vprop.
            stream_bytes = apply_dst.size * PROP_BYTES
            result.stream_read_bytes += stream_bytes
            result.stream_write_bytes += stream_bytes
            result.vertex_applies += int(apply_dst.size)
            self.charge(
                result,
                self.phase_stats(
                    partial(
                        self.run_path, apply_dst, self.layout.vtemp_addrs, True
                    ),
                    self.effective_stream_bytes(stream_bytes),
                    stream_bytes,
                ),
                self.pipeline.compute_ns(0, int(apply_dst.size)),
            )

    def block_access_phase(
        self, block: BlockTrace, phase: PhaseAccumulator
    ) -> None:
        """Run the block's random Vprop reads and Vtemp updates through
        the memory path, each chunk's requests into ``phase``."""
        self.run_path(block.edge_src, self.layout.vprop_addrs, False, phase)
        self.run_path(block.edge_dst, self.layout.vtemp_addrs, True, phase)


class ECConventionalSystem(_ECSystem):
    """Edge-centric with scratchpad tiles and a conventional memory
    system: every block pass reloads its source tile sequentially, every
    column pass settles its destination tile -- the repetition cost of
    the grid."""

    name = "EC Conventional"


class ECPiccoloSystem(_FineGrainedSystem, _ECSystem):
    """Edge-centric on Piccolo: the Piccolo cache and collection-extended
    MSHR over much larger blocks turn both the source reads and the
    destination updates into fine-grained random accesses served by FIM
    gathers."""

    name = "EC Piccolo"
    onchip_field = "piccolo_cache_bytes"


SYSTEMS: dict[str, type[AcceleratorSystem]] = {
    "Graphicionado": GraphicionadoSystem,
    "GraphDyns (SPM)": GraphDynsSPMSystem,
    "GraphDyns (Cache)": GraphDynsCacheSystem,
    "NMP": NMPSystem,
    "PIM": PIMSystem,
    "Piccolo": PiccoloSystem,
    "EC Conventional": ECConventionalSystem,
    "EC Piccolo": ECPiccoloSystem,
}

#: the systems built on the collection-extended MSHR, the only ones
#: whose fine-grained cache a Fig. 11 ``cache_design`` can replace
FINE_GRAINED_SYSTEMS = tuple(
    name for name, cls in SYSTEMS.items() if issubclass(cls, _FineGrainedSystem)
)

#: paper ordering of the Fig. 10 bars (the vertex-centric systems)
SYSTEM_ORDER = (
    "Graphicionado",
    "GraphDyns (SPM)",
    "GraphDyns (Cache)",
    "NMP",
    "PIM",
    "Piccolo",
)


def make_system(name: str, **kwargs) -> AcceleratorSystem:
    """Instantiate a named system with keyword overrides."""
    try:
        cls = SYSTEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None
    return cls(**kwargs)
