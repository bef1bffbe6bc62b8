"""Unit tests for the CSR graph structure."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_csr import reference_csr_arrays
from repro.graph import csr
from repro.graph.csr import CSRGraph
from repro.utils import sorting


class TestConstruction:
    def test_from_edges_basic(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 7
        assert tiny_graph.average_degree == pytest.approx(7 / 6)

    def test_neighbors_sorted_by_destination(self, tiny_graph):
        assert tiny_graph.neighbors(0).tolist() == [1, 2]
        assert tiny_graph.neighbors(3).tolist() == [4]
        assert tiny_graph.neighbors(5).tolist() == [0]

    def test_weights_follow_edges(self, tiny_graph):
        assert tiny_graph.edge_weights(0).tolist() == [1, 2]

    def test_out_degrees(self, tiny_graph):
        assert tiny_graph.out_degrees().tolist() == [2, 1, 1, 1, 1, 1]

    def test_dedupe_removes_parallel_edges(self):
        g = CSRGraph.from_edges(
            3, np.array([0, 0, 0]), np.array([1, 1, 2]), dedupe=True
        )
        assert g.num_edges == 2

    def test_dedupe_off_keeps_parallel_edges(self):
        g = CSRGraph.from_edges(
            3, np.array([0, 0]), np.array([1, 1]), dedupe=False
        )
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, np.array([]), np.array([]))
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.average_degree == 0.0

    def test_out_of_range_source_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.array([5]), np.array([0]))

    def test_out_of_range_destination_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, np.array([0]), np.array([7]))

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(
                indptr=np.array([0, 2, 1]),
                indices=np.array([0, 0]),
                weights=np.zeros(2),
            )

    def test_indptr_must_match_edges(self):
        with pytest.raises(ValueError):
            CSRGraph(
                indptr=np.array([0, 3]),
                indices=np.array([0]),
                weights=np.zeros(1),
            )


class TestTransforms:
    def test_edge_array_roundtrip(self, small_random_graph):
        g = small_random_graph
        src, dst, w = g.edge_array()
        g2 = CSRGraph.from_edges(g.num_vertices, src, dst, w, dedupe=False)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)
        assert np.array_equal(g.weights, g2.weights)

    def test_reversed_preserves_edge_count(self, small_random_graph):
        rev = small_random_graph.reversed()
        assert rev.num_edges == small_random_graph.num_edges

    def test_reversed_twice_is_identity(self, tiny_graph):
        back = tiny_graph.reversed().reversed()
        assert np.array_equal(back.indptr, tiny_graph.indptr)
        assert np.array_equal(back.indices, tiny_graph.indices)

    def test_relabel_identity(self, tiny_graph):
        same = tiny_graph.relabel(np.arange(6))
        assert np.array_equal(same.indices, tiny_graph.indices)

    def test_relabel_preserves_degree_multiset(self, small_random_graph):
        rng = np.random.default_rng(0)
        perm = rng.permutation(small_random_graph.num_vertices)
        shuffled = small_random_graph.relabel(perm)
        assert sorted(shuffled.out_degrees().tolist()) == sorted(
            small_random_graph.out_degrees().tolist()
        )

    def test_relabel_rejects_non_bijection(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.relabel(np.zeros(6, dtype=np.int64))

    @pytest.mark.parametrize("permutation", [[0, 1, 2, 9], [0, 1, 2, -1]])
    def test_relabel_rejects_ids_out_of_range(self, permutation):
        # the edges avoid vertex 3, so no edge endpoint is ever mapped out
        g = CSRGraph.from_edges(4, np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(ValueError, match="permutation"):
            g.relabel(np.array(permutation))

    def test_relabel_of_an_edgeless_graph_checks_the_permutation(self):
        g = CSRGraph.from_edges(3, np.array([]), np.array([]))
        with pytest.raises(ValueError, match="permutation"):
            g.relabel(np.array([5, 6, 7]))
        assert g.relabel(np.array([2, 0, 1])).num_vertices == 3

    def test_with_weights(self, tiny_graph):
        w = np.full(7, 9)
        g = tiny_graph.with_weights(w)
        assert g.edge_weights(0).tolist() == [9, 9]


@st.composite
def edge_lists(draw):
    """(num_vertices, src, dst, weights) with parallel edges and self-loops.

    Vertex counts are small, so self-loops and repeated pairs are common;
    a few drawn pairs are repeated on top, and every edge gets a distinct
    weight, so a build that kept the wrong duplicate's weight shows.
    """
    n = draw(st.integers(0, 12))
    if n == 0:
        pairs = []
    else:
        ids = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(ids, ids), max_size=40))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
        pairs = draw(st.permutations(pairs))
    weights = draw(st.permutations(range(len(pairs))))
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    return n, src, dst, np.array(weights, dtype=np.int64)


@contextlib.contextmanager
def csr_build(packed):
    """Run a CSR build with the packed-key guard as is (``packed``) or
    forced off, and check that only the fallback calls ``np.lexsort``."""
    with contextlib.ExitStack() as stack:
        if not packed:
            for module in (csr, sorting):
                stack.enter_context(mock.patch.object(
                    module, "packed_key_fits", lambda *radices: False
                ))
        lexsort = stack.enter_context(
            mock.patch.object(np, "lexsort", wraps=np.lexsort)
        )
        yield
    assert lexsort.called != packed


def assert_matches(graph, expected):
    indptr, indices, weights = expected
    for got, want in zip(
        (graph.indptr, graph.indices, graph.weights), (indptr, indices, weights)
    ):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "lexsort"])
class TestBuildMatchesReference:
    """Both constructors against the two-key lexsort build, array for
    array, on the packed-key path and on its lexsort fallback."""

    @settings(max_examples=150, deadline=None)
    @given(edges=edge_lists(), dedupe=st.booleans(), weighted=st.booleans())
    def test_from_edges(self, packed, edges, dedupe, weighted):
        n, src, dst, weights = edges
        weights = weights if weighted else None
        inputs = [a.copy() for a in (src, dst)]
        expected = reference_csr_arrays(n, src, dst, weights, dedupe=dedupe)
        with csr_build(packed):
            graph = CSRGraph.from_edges(n, src, dst, weights, dedupe=dedupe)
        assert_matches(graph, expected)
        assert graph.num_vertices == n
        # the caller's arrays are left as they were
        assert np.array_equal(src, inputs[0])
        assert np.array_equal(dst, inputs[1])

    @settings(max_examples=100, deadline=None)
    @given(edges=edge_lists())
    def test_from_edges_consuming(self, packed, edges):
        n, src, dst, _ = edges
        expected = reference_csr_arrays(n, src, dst)
        owned = [src.copy(), dst.copy()]
        with csr_build(packed):
            graph = CSRGraph.from_edges_consuming(n, owned)
        assert owned == []
        assert_matches(graph, expected)
