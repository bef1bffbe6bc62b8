"""Tests for the edge-centric engine: equivalence with the VCM results."""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.ecm import EdgeCentricEngine
from repro.algorithms.pagerank import reference_pagerank
from repro.algorithms.vcm import VertexCentricEngine
from repro.graph.generators import erdos_renyi


class TestEquivalence:
    def test_pagerank_matches_vcm(self, medium_power_law_graph):
        spec = make_algorithm("PR", medium_power_law_graph)
        ec = EdgeCentricEngine(spec, src_tile_width=128, dst_tile_width=200)
        for _ in range(5):
            ec.step()
        ref = reference_pagerank(medium_power_law_graph, iterations=5)
        np.testing.assert_allclose(ec.prop, ref, rtol=1e-9)

    def test_block_partition_covers_all_edges(self, medium_power_law_graph):
        spec = make_algorithm("PR", medium_power_law_graph)
        ec = EdgeCentricEngine(spec, 100, 100)
        trace = ec.step()
        assert trace.num_edges == medium_power_law_graph.num_edges

    def test_blocks_respect_ranges(self, medium_power_law_graph):
        spec = make_algorithm("PR", medium_power_law_graph)
        ec = EdgeCentricEngine(spec, 128, 256)
        trace = ec.step()
        for block in trace.blocks:
            assert block.edge_src.min() >= block.src_lo
            assert block.edge_src.max() < block.src_hi
            assert block.edge_dst.min() >= block.dst_lo
            assert block.edge_dst.max() < block.dst_hi

    def test_bfs_like_fixpoint_matches_vcm(self, small_random_graph):
        spec_vc = make_algorithm("CC", small_random_graph)
        vc = VertexCentricEngine(spec_vc)
        vc.run(200)
        spec_ec = make_algorithm("CC", small_random_graph)
        ec = EdgeCentricEngine(spec_ec, 64, 64)
        for _ in range(200):
            if ec.converged:
                break
            ec.step()
        assert np.array_equal(vc.prop, ec.prop)

    def test_convergence_flag(self, tiny_graph):
        spec = make_algorithm("CC", tiny_graph)
        ec = EdgeCentricEngine(spec, 3, 3)
        for _ in range(50):
            if ec.converged:
                break
            ec.step()
        assert ec.converged

    def test_invalid_widths(self, tiny_graph):
        spec = make_algorithm("PR", tiny_graph)
        with pytest.raises(ValueError):
            EdgeCentricEngine(spec, 0, 4)
        with pytest.raises(ValueError):
            EdgeCentricEngine(spec, 4, 0)

    def test_column_major_block_order(self, medium_power_law_graph):
        spec = make_algorithm("PR", medium_power_law_graph)
        ec = EdgeCentricEngine(spec, 128, 128)
        trace = ec.step()
        dst_tiles = [b.dst_tile for b in trace.blocks]
        assert dst_tiles == sorted(dst_tiles)


class TestTouchedSets:
    """Block ``touched_dst`` and per-column ``apply_dst`` are read off
    range bitmaps; they must equal the ``np.unique`` of the destinations
    the blocks traversed, dtype included."""

    @pytest.mark.parametrize("widths", [(1, 1), (7, 3), (5, 40), (50, 50)])
    @pytest.mark.parametrize("algorithm", ["PR", "BFS", "SSSP"])
    def test_match_unique_of_block_destinations(self, algorithm, widths):
        graph = erdos_renyi(40, avg_degree=4.0, seed=5)
        spec = make_algorithm(algorithm, graph)
        ec = EdgeCentricEngine(spec, *widths)
        traces = list(ec.run_iter(6))
        assert traces
        for trace in traces:
            for block in trace.blocks:
                assert block.touched_dst.dtype == np.int64
                assert np.array_equal(
                    block.touched_dst, np.unique(block.edge_dst)
                )
            for q, apply_dst in enumerate(trace.apply_dst):
                lo = q * ec.dst_tile_width
                hi = min(lo + ec.dst_tile_width, graph.num_vertices)
                if spec.applies_all_vertices:
                    expected = np.arange(lo, hi)
                else:
                    expected = np.unique(np.concatenate(
                        [b.edge_dst for b in trace.blocks if b.dst_tile == q]
                        + [np.empty(0, dtype=np.int64)]
                    ))
                assert apply_dst.dtype == np.int64
                assert np.array_equal(apply_dst, expected)
