"""Tests for the vertex-centric engine: correctness against oracles and
tiling invariance (the engine's results must not depend on tile width)."""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.bfs import reference_bfs
from repro.algorithms.cc import reference_cc
from repro.algorithms.pagerank import reference_pagerank
from repro.algorithms.sssp import reference_sssp
from repro.algorithms.sswp import reference_sswp
from repro.algorithms.vcm import VertexCentricEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.utils import units


def run_engine(graph, algorithm, tile_width=None, iterations=64, **kwargs):
    spec = make_algorithm(algorithm, graph, **kwargs)
    engine = VertexCentricEngine(spec, tile_width)
    engine.run(iterations)
    return engine


class TestPageRank:
    def test_matches_reference(self, small_random_graph):
        engine = run_engine(small_random_graph, "PR", iterations=10)
        ref = reference_pagerank(small_random_graph, iterations=10)
        np.testing.assert_allclose(engine.prop, ref, rtol=1e-9)

    def test_tiling_invariance(self, medium_power_law_graph):
        whole = run_engine(medium_power_law_graph, "PR", iterations=5)
        tiled = run_engine(
            medium_power_law_graph, "PR", tile_width=100, iterations=5
        )
        np.testing.assert_allclose(whole.prop, tiled.prop, rtol=1e-12)

    def test_ranks_form_distribution(self, medium_power_law_graph):
        engine = run_engine(medium_power_law_graph, "PR", iterations=30)
        assert engine.prop.min() > 0
        # Dangling vertices leak mass, so the sum is at most 1.
        assert engine.prop.sum() <= 1.0 + 1e-9

    def test_converges_and_deactivates(self, tiny_graph):
        engine = run_engine(tiny_graph, "PR", iterations=500)
        assert engine.converged()


class TestBFS:
    def test_matches_reference(self, medium_power_law_graph):
        engine = run_engine(medium_power_law_graph, "BFS")
        ref = reference_bfs(medium_power_law_graph, 0)
        assert np.array_equal(engine.prop, ref)

    def test_tiling_invariance(self, medium_power_law_graph):
        whole = run_engine(medium_power_law_graph, "BFS")
        tiled = run_engine(medium_power_law_graph, "BFS", tile_width=77)
        assert np.array_equal(whole.prop, tiled.prop)

    def test_frontier_is_sparse(self, medium_power_law_graph):
        spec = make_algorithm("BFS", medium_power_law_graph)
        engine = VertexCentricEngine(spec)
        first = engine.step()
        assert first.active_vertices == 1

    def test_unreachable_stays_infinite(self, tiny_graph):
        # Vertex ids 0..5 form a cycle plus branches; all reachable from 0.
        engine = run_engine(tiny_graph, "BFS")
        assert np.all(np.isfinite(engine.prop))

    def test_source_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            make_algorithm("BFS", tiny_graph, source=100)


class TestCC:
    def test_matches_reference(self, small_random_graph):
        engine = run_engine(small_random_graph, "CC", iterations=200)
        ref = reference_cc(small_random_graph)
        assert np.array_equal(engine.prop, ref)

    def test_tiling_invariance(self, small_random_graph):
        whole = run_engine(small_random_graph, "CC", iterations=200)
        tiled = run_engine(small_random_graph, "CC", tile_width=50,
                           iterations=200)
        assert np.array_equal(whole.prop, tiled.prop)

    def test_ring_collapses_to_zero(self):
        from repro.graph.csr import CSRGraph

        n = 8
        src = np.arange(n)
        dst = (src + 1) % n
        ring = CSRGraph.from_edges(n, src, dst)
        engine = run_engine(ring, "CC", iterations=100)
        assert np.all(engine.prop == 0)


class TestSSSP:
    def test_matches_dijkstra(self, medium_power_law_graph):
        engine = run_engine(medium_power_law_graph, "SSSP", iterations=200)
        ref = reference_sssp(medium_power_law_graph, 0)
        np.testing.assert_allclose(engine.prop, ref)

    def test_tiling_invariance(self, medium_power_law_graph):
        whole = run_engine(medium_power_law_graph, "SSSP", iterations=200)
        tiled = run_engine(
            medium_power_law_graph, "SSSP", tile_width=123, iterations=200
        )
        assert np.array_equal(whole.prop, tiled.prop)

    def test_negative_weights_rejected(self, tiny_graph):
        bad = tiny_graph.with_weights(np.full(7, -1))
        with pytest.raises(ValueError):
            make_algorithm("SSSP", bad)


class TestSSWP:
    def test_matches_reference(self, medium_power_law_graph):
        engine = run_engine(medium_power_law_graph, "SSWP", iterations=200)
        ref = reference_sswp(medium_power_law_graph, 0)
        np.testing.assert_allclose(engine.prop, ref)

    def test_source_width_infinite(self, tiny_graph):
        engine = run_engine(tiny_graph, "SSWP")
        assert engine.prop[0] == np.inf

    def test_width_bounded_by_max_weight(self, medium_power_law_graph):
        engine = run_engine(medium_power_law_graph, "SSWP", iterations=200)
        finite = engine.prop[np.isfinite(engine.prop)]
        if finite.size:
            assert finite.max() <= medium_power_law_graph.weights.max()


class TestTraces:
    def test_edges_match_active_sources(self, medium_power_law_graph):
        spec = make_algorithm("BFS", medium_power_law_graph)
        engine = VertexCentricEngine(spec, tile_width=128)
        trace = engine.step()
        # First iteration: only the source's edges are traversed.
        expected = medium_power_law_graph.out_degrees()[0]
        assert trace.num_edges == expected

    def test_pagerank_trace_covers_all_edges(self, medium_power_law_graph):
        spec = make_algorithm("PR", medium_power_law_graph)
        engine = VertexCentricEngine(spec, tile_width=100)
        trace = engine.step()
        assert trace.num_edges == medium_power_law_graph.num_edges

    def test_changed_subset_of_apply(self, medium_power_law_graph):
        spec = make_algorithm("CC", medium_power_law_graph)
        engine = VertexCentricEngine(spec, tile_width=200)
        trace = engine.step()
        for tile in trace.tiles:
            assert set(tile.changed_dst).issubset(set(tile.apply_dst))

    def test_run_iter_stops_at_convergence(self, tiny_graph):
        spec = make_algorithm("BFS", tiny_graph)
        engine = VertexCentricEngine(spec)
        traces = list(engine.run_iter(64))
        assert engine.converged()
        assert traces[-1].next_active == 0

    def test_max_iterations_validated(self, tiny_graph):
        spec = make_algorithm("BFS", tiny_graph)
        engine = VertexCentricEngine(spec)
        with pytest.raises(ValueError):
            list(engine.run_iter(0))


class TestTouchedDst:
    """``touched_dst`` is read off a range bitmap; it must equal
    ``np.unique`` of the tile's traversed destinations, dtype included,
    and neither it nor the properties may depend on the edge chunk."""

    @pytest.mark.parametrize("backing", ["memory", "disk"])
    @pytest.mark.parametrize("width", [1, 7, "V", "V+5"])
    @pytest.mark.parametrize("algorithm", ["PR", "BFS", "SSSP"])
    def test_matches_unique_edge_dst(
        self, algorithm, width, backing, tmp_path, monkeypatch
    ):
        one = np.zeros(1, dtype=np.int64)
        graphs = (
            erdos_renyi(40, avg_degree=4.0, seed=3),
            erdos_renyi(37, avg_degree=0.7, seed=4),  # isolated vertices
            CSRGraph.from_edges(1, one, one, one + 5),
        )
        for graph in graphs:
            n = graph.num_vertices
            tile_width = {"V": n, "V+5": n + 5}.get(width, width)
            outcomes = []
            # one chunk longer than any tile, then 3-edge chunks
            for chunk in (1 << 20, 3):
                monkeypatch.setattr(units, "CHUNK_ACCESSES", chunk)
                engine = VertexCentricEngine(
                    make_algorithm(algorithm, graph),
                    tile_width,
                    tile_backing=backing,
                    tile_store_root=tmp_path,
                )
                traces = engine.run(6)
                assert traces
                tiles = [t for trace in traces for t in trace.tiles]
                for tile in tiles:
                    assert tile.touched_dst.dtype == np.int64
                    assert np.array_equal(
                        tile.touched_dst, np.unique(tile.edge_dst)
                    )
                outcomes.append((
                    engine.prop.tolist(),
                    [t.touched_dst.tolist() for t in tiles],
                ))
            assert outcomes[0] == outcomes[1]


class TestTileWidth:
    def test_negative_width_rejected(self, small_random_graph):
        spec = make_algorithm("PR", small_random_graph)
        with pytest.raises(ValueError, match="tile_width"):
            VertexCentricEngine(spec, tile_width=-5)

    @pytest.mark.parametrize("width", [None, 0])
    def test_none_and_zero_mean_one_whole_graph_tile(
        self, width, small_random_graph
    ):
        spec = make_algorithm("PR", small_random_graph)
        engine = VertexCentricEngine(spec, tile_width=width)
        assert len(engine.tiled) == 1
        assert engine.tiled[0].width == small_random_graph.num_vertices

    def test_empty_graph_at_width_zero_runs_no_iterations(self):
        empty = np.empty(0, dtype=np.int64)
        graph = CSRGraph.from_edges(0, empty, empty)
        engine = VertexCentricEngine(make_algorithm("PR", graph), 0)
        assert len(engine.tiled) == 0
        assert engine.run(5) == []
