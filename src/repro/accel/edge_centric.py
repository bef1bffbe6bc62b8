"""Edge-centric accelerator systems (Sec. VII-H, Fig. 19a).

Edge-centric accelerators (ForeGraph/Fabgraph-style) stream the edge list
in grid blocks and keep the current source-property tile and
destination-temporary tile on chip:

- :class:`ECConventionalSystem`: scratchpad halves for the two tiles;
  every block pass reloads its source tile sequentially, every column
  pass settles its destination tile -- the repetition cost of the grid.
- :class:`ECPiccoloSystem`: Piccolo-cache + collection-extended MSHR over
  much larger blocks; both the source reads and destination updates
  become fine-grained random accesses served by FIM gathers.
"""

from __future__ import annotations

from repro.accel.base import AcceleratorSystem, SystemResult
from repro.accel.layout import EDGE_BYTES, MemoryLayout, PROP_BYTES
from repro.accel.pipeline import PipelineConfig
from repro.algorithms import make_algorithm
from repro.algorithms.ecm import EdgeCentricEngine
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import FineGrainedMemoryPath
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.spec import DRAMConfig
from repro.graph.csr import CSRGraph
from repro.utils.units import ceil_div


class _ECSystem(AcceleratorSystem):
    """Shared scaffolding for the two edge-centric systems."""

    name = "EC base"

    def __init__(
        self,
        dram_config: DRAMConfig | None = None,
        pipeline: PipelineConfig | None = None,
        onchip_bytes: int = 4096,
        tile_scale: int = 1,
        layout: MemoryLayout | None = None,
        replay_capacity: int | None = None,
    ) -> None:
        super().__init__(dram_config, pipeline)
        self.onchip_bytes = onchip_bytes
        self.tile_scale = tile_scale
        self.layout = layout if layout is not None else MemoryLayout()
        #: memory-path replay memo (scale-profile driven; None =
        #: REPLAY_CAPACITY_DEFAULT, 0 = no memo), mirroring the
        #: vertex-centric systems; every edge-centric run is stationary
        #: (it streams every block every iteration), so it builds a memo
        self.replay_capacity = replay_capacity

    def tile_widths(self, graph: CSRGraph) -> tuple[int, int]:
        """(source, destination) tile widths in vertices."""
        half = max(1, self.onchip_bytes // 2 // PROP_BYTES)
        width = min(graph.num_vertices, half * self.tile_scale)
        return width, width

    def run(
        self, graph: CSRGraph, algorithm: str, max_iterations: int = 40
    ) -> SystemResult:
        spec = make_algorithm(algorithm, graph)
        src_w, dst_w = self.tile_widths(graph)
        engine = EdgeCentricEngine(spec, src_w, dst_w)
        result = SystemResult(
            system=self.name,
            algorithm=algorithm,
            dataset=graph.name,
            tile_width=dst_w,
            num_tiles=engine.num_dst_tiles,
            onchip_bytes=self.onchip_bytes,
        )
        result.dram._burst_bytes = self.dram_config.spec.burst_bytes
        self.setup(graph, self.replay_capacity if engine.stationary else 0)
        for trace in engine.run_iter(max_iterations):
            self._run_iteration(trace, result)
            result.iterations += 1
        self.finish(result)
        return result

    def setup(self, graph: CSRGraph, replay_capacity: int | None) -> None:
        """Hook for building on-chip state; the memory path gets a
        replay memo of ``replay_capacity`` (0: none)."""


class ECConventionalSystem(_ECSystem):
    """Edge-centric with scratchpad tiles and a conventional memory system."""

    name = "EC Conventional"

    def _run_iteration(self, trace, result) -> None:
        for block in trace.blocks:
            # Stream the block's edges and reload the source tile.
            stream_rd = (
                block.num_edges * EDGE_BYTES
                + (block.src_hi - block.src_lo) * PROP_BYTES
            )
            result.stream_read_bytes += stream_rd
            compute = self.pipeline.compute_ns(block.num_edges, 0)
            result.edges_processed += block.num_edges
            phase = self.dram.phase(
                stream_read_bytes=self.effective_stream_bytes(stream_rd)
            )
            self.charge(result, phase, compute)
        for apply_dst in trace.apply_dst:
            if apply_dst.size == 0:
                continue
            # Column settle: apply reads/writes Vprop for the tile.
            stream_rd = apply_dst.size * PROP_BYTES
            stream_wr = apply_dst.size * PROP_BYTES
            result.stream_read_bytes += stream_rd
            result.stream_write_bytes += stream_wr
            compute = self.pipeline.compute_ns(0, int(apply_dst.size))
            result.vertex_applies += int(apply_dst.size)
            phase = self.dram.phase(
                stream_read_bytes=self.effective_stream_bytes(stream_rd),
                stream_write_bytes=stream_wr,
            )
            self.charge(result, phase, compute)


class ECPiccoloSystem(_ECSystem):
    """Edge-centric on Piccolo: fine-grained random access to both the
    source properties and the destination temporaries."""

    name = "EC Piccolo"

    def __init__(
        self,
        *args,
        cache_ways: int = 8,
        mshr_entries: int = 64,
        fg_tag_bits: int = 4,
        tile_scale: int = 8,
        **kwargs,
    ) -> None:
        super().__init__(*args, tile_scale=tile_scale, **kwargs)
        self.cache_ways = cache_ways
        self.mshr_entries = mshr_entries
        self.fg_tag_bits = fg_tag_bits

    def setup(self, graph: CSRGraph, replay_capacity: int | None) -> None:
        cache = PiccoloCache(
            self.onchip_bytes, ways=self.cache_ways,
            fg_tag_bits=self.fg_tag_bits,
        )
        src_w, _ = self.tile_widths(graph)
        windows = ceil_div(src_w * PROP_BYTES, cache.window_bytes)
        cache.set_way_quota(max(1, ceil_div(windows, cache.num_sets)))
        mshr = CollectionExtendedMSHR(
            self.dram.mapper,
            num_entries=self.mshr_entries,
            items_per_op=self.dram_config.fim_items_per_op,
        )
        self.path = FineGrainedMemoryPath(
            cache, mshr, replay_capacity=replay_capacity
        )

    def _run_iteration(self, trace, result) -> None:
        layout = self.layout
        path = self.path
        for block in trace.blocks:
            stream_rd = block.num_edges * EDGE_BYTES
            result.stream_read_bytes += stream_rd
            compute = self.pipeline.compute_ns(block.num_edges, 0)
            result.edges_processed += block.num_edges
            phase = self.dram.open_phase()
            path.run(layout.vprop_addrs(block.edge_src), rmw=False, phase=phase)
            path.run(layout.vtemp_addrs(block.edge_dst), rmw=True, phase=phase)
            self.charge(
                result,
                phase.close(
                    stream_read_bytes=self.effective_stream_bytes(stream_rd)
                ),
                compute,
            )
        for apply_dst in trace.apply_dst:
            if apply_dst.size == 0:
                continue
            stream_rd = apply_dst.size * PROP_BYTES
            stream_wr = apply_dst.size * PROP_BYTES
            result.stream_read_bytes += stream_rd
            result.stream_write_bytes += stream_wr
            compute = self.pipeline.compute_ns(0, int(apply_dst.size))
            result.vertex_applies += int(apply_dst.size)
            phase = self.dram.open_phase()
            path.run(layout.vtemp_addrs(apply_dst), rmw=True, phase=phase)
            self.charge(
                result,
                phase.close(
                    stream_read_bytes=self.effective_stream_bytes(stream_rd),
                    stream_write_bytes=stream_wr,
                ),
                compute,
            )
        # Partially-filled collections are evicted at iteration boundaries.
        pending = path.mshr.flush()
        if pending:
            self.charge(result, self.dram.phase(fim_ops=pending))
