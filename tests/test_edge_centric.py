"""Tests for the edge-centric accelerator systems (Fig. 19a)."""

import pytest

from repro.accel.systems import ECConventionalSystem, ECPiccoloSystem
from repro.experiments.config import DEFAULT_SCALE as TOY
from repro.experiments.runner import clear_result_cache, run_system
from repro.graph.datasets import load_dataset
from repro.graph.generators import community_graph, rmat


@pytest.fixture(scope="module")
def graph():
    return rmat(2048, avg_degree=8.0, seed=21, name="ec-test")


class TestECConventional:
    def test_runs_and_counts_edges(self, graph):
        system = ECConventionalSystem(onchip_bytes=2048)
        result = system.run(graph, "PR", max_iterations=2)
        assert result.edges_processed == 2 * graph.num_edges
        assert result.total_ns > 0

    def test_streams_are_useful(self, graph):
        system = ECConventionalSystem(onchip_bytes=2048)
        result = system.run(graph, "PR", max_iterations=1)
        # 100 % useful modulo per-phase burst rounding.
        assert result.useful_fraction == pytest.approx(1.0, abs=0.02)

    def test_grid_repetition_costs_grow_with_smaller_tiles(self, graph):
        small = ECConventionalSystem(onchip_bytes=1024)
        big = ECConventionalSystem(onchip_bytes=8192)
        r_small = small.run(graph, "PR", max_iterations=1)
        r_big = big.run(graph, "PR", max_iterations=1)
        # More blocks -> more source-tile reloads -> more stream traffic.
        assert r_small.stream_read_bytes > r_big.stream_read_bytes


class TestECPiccolo:
    def test_runs_with_fim_ops(self, graph):
        system = ECPiccoloSystem(
            onchip_bytes=2048, mshr_entries=32, fg_tag_bits=4
        )
        result = system.run(graph, "PR", max_iterations=2)
        assert result.dram.fim_gathers > 0
        assert result.cache_accesses > 0

    def test_settles_mshr_and_random_traffic(self, graph):
        """EC Piccolo settles its counters as the vertex-centric systems
        do: every FIM op its MSHR issued reaches DRAM, and its random
        bytes are its cache's fill and write-back bytes."""
        system = ECPiccoloSystem(
            onchip_bytes=1024, mshr_entries=64, fg_tag_bits=4
        )
        result = system.run(graph, "PR", max_iterations=2)
        fim_ops = result.dram.fim_gathers + result.dram.fim_scatters
        assert result.mshr_ops == fim_ops > 0
        mshr, cache = system.path.mshr, system.path.cache
        assert result.mshr_forwarded == mshr.stats.forwarded_reads
        assert result.random_read_bytes == cache.stats.fill_bytes > 0
        assert result.random_write_bytes == cache.stats.writeback_bytes > 0

    def test_wins_when_onchip_capacity_is_scarce(self):
        """The paper's Fig. 19a regime: at full scale the conventional EC
        grid reload (~ P x |V|) dominates.  At our 2^12-scaled size that
        quadratic term only bites when on-chip capacity is proportionally
        scarce -- there Piccolo's fine-grained path wins clearly (see
        EXPERIMENTS.md for the deviation discussion)."""
        dense = community_graph(
            4096, avg_degree=24.0, num_communities=32, seed=3, name="dense"
        )
        conv = ECConventionalSystem(onchip_bytes=1024).run(
            dense, "PR", max_iterations=2
        )
        picc = ECPiccoloSystem(
            onchip_bytes=1024, mshr_entries=32, fg_tag_bits=4, tile_scale=8
        ).run(dense, "PR", max_iterations=2)
        assert picc.total_ns < conv.total_ns

    def test_conventional_reload_grows_quadratically(self):
        """Halving the EC grid's on-chip buffers roughly doubles the grid
        dimension and the source-reload traffic."""
        dense = community_graph(
            4096, avg_degree=24.0, num_communities=32, seed=3, name="dense"
        )
        big = ECConventionalSystem(onchip_bytes=4096).run(
            dense, "PR", max_iterations=1
        )
        small = ECConventionalSystem(onchip_bytes=1024).run(
            dense, "PR", max_iterations=1
        )
        # The edge stream is constant; the reload term grows with the
        # grid dimension (sub-quadratically only because empty blocks
        # are skipped).
        edge_bytes = dense.num_edges * 8
        reload_big = big.stream_read_bytes - edge_bytes
        reload_small = small.stream_read_bytes - edge_bytes
        assert reload_small > 2.0 * reload_big

    def test_tile_scale_enlarges_blocks(self, graph):
        narrow = ECPiccoloSystem(onchip_bytes=2048, tile_scale=1,
                                 mshr_entries=32, fg_tag_bits=4)
        wide = ECPiccoloSystem(onchip_bytes=2048, tile_scale=8,
                               mshr_entries=32, fg_tag_bits=4)
        assert wide.choose_tile_width(graph) > narrow.choose_tile_width(graph)


@pytest.mark.parametrize("system,build", [
    ("EC Conventional",
     lambda: ECConventionalSystem(onchip_bytes=TOY.baseline_cache_bytes)),
    ("EC Piccolo",
     lambda: ECPiccoloSystem(
         onchip_bytes=TOY.piccolo_cache_bytes,
         mshr_entries=TOY.mshr_entries,
         fg_tag_bits=TOY.fg_tag_bits,
     )),
])
def test_cell_equals_the_inline_fig19a_build(system, build):
    """An edge-centric cell resolves to the system Fig. 19a built inline
    before the edge-centric systems were registered: the profile's
    on-chip budget and MSHR knobs, the class's tile scale."""
    clear_result_cache()
    cell = run_system(system, "PR", "UU")
    inline = build().run(
        load_dataset("UU"), "PR", max_iterations=TOY.iterations_for("PR")
    )
    assert cell.to_record() == inline.to_record()
