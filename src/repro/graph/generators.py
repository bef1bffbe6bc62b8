"""Synthetic graph generators.

The paper evaluates on five real-world graphs plus Watts-Strogatz and
Kronecker synthetic graphs (Table II).  Real datasets are unavailable
offline, so the dataset registry (``repro.graph.datasets``) builds seeded
stand-ins from the generators here, preserving the characteristics the
evaluation depends on: average degree, degree skew, and vertex-id locality.

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

#: Default RMAT/Kronecker partition probabilities (Graph500 uses
#: a=0.57, b=0.19, c=0.19); the paper cites Leskovec et al. for Kronecker.
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def assign_random_weights(
    graph: CSRGraph, low: int = 0, high: int = 255, seed: int = 7
) -> CSRGraph:
    """Assign integer weights uniform in [low, high], as the paper does for
    unweighted real-world graphs (Sec. VII-A)."""
    rng = _rng(seed)
    weights = rng.integers(low, high + 1, size=graph.num_edges, dtype=np.int64)
    return graph.with_weights(weights)


def erdos_renyi(
    num_vertices: int, avg_degree: float, seed: int = 1, name: str = "erdos"
) -> CSRGraph:
    """Uniform random directed graph with the requested average out-degree."""
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if avg_degree < 0:
        raise ValueError("avg_degree must be non-negative")
    rng = _rng(seed)
    num_edges = int(round(num_vertices * avg_degree))
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    graph = CSRGraph.from_edges(num_vertices, src, dst, name=name)
    return assign_random_weights(graph, seed=seed + 1)


def rmat(
    num_vertices: int,
    avg_degree: float,
    seed: int = 1,
    a: float = RMAT_A,
    b: float = RMAT_B,
    c: float = RMAT_C,
    name: str = "rmat",
) -> CSRGraph:
    """RMAT / stochastic-Kronecker graph (power-law degree distribution).

    ``num_vertices`` is rounded up to the next power of two internally for
    edge generation; edges landing on padding vertices (ids in
    ``[num_vertices, 2**ceil(log2(num_vertices)))``) are remapped to a
    uniform random valid id.  (An earlier implementation remapped by
    modulo, which folded the whole padding range onto the low ids
    ``[0, 2**ceil - num_vertices)`` and roughly doubled their expected
    degree whenever ``num_vertices`` is not a power of two --
    ``tests/test_generators.py`` pins the uniform behaviour.)
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("RMAT probabilities must be non-negative and sum <= 1")
    rng = _rng(seed)
    scale = int(np.ceil(np.log2(max(2, num_vertices))))
    num_edges = int(round(num_vertices * avg_degree))

    # Vectorised RMAT: one random draw per (edge, bit) decides the quadrant.
    # Bit decisions stay boolean and the conditional dst threshold is a
    # scalar select, so per-level temporaries are two float draws plus
    # bool masks (the paper-profile graphs make 8-byte-per-edge
    # temporaries the dominant transient cost; the produced bit
    # decisions -- and hence the graph -- are unchanged).
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    p_dst_given_src0 = b / max(a + b, 1e-12)
    p_dst_given_src1 = d / max(c + d, 1e-12)
    for _ in range(scale):
        r = rng.random(num_edges)
        src_bit = r >= a + b
        # Probability of dst bit depends on src bit: P(dst=1 | src=0) = b/(a+b).
        r2 = rng.random(num_edges)
        src <<= 1
        src |= src_bit
        dst <<= 1
        dst |= np.where(src_bit, r2 < p_dst_given_src1, r2 < p_dst_given_src0)
    del r, r2, src_bit
    for endpoint in (src, dst):
        over = endpoint >= num_vertices
        count = int(np.count_nonzero(over))
        if count:
            endpoint[over] = rng.integers(
                0, num_vertices, size=count, dtype=np.int64
            )
        del over
    # the list holds the only references, so the build frees each array
    edges = [src, dst]
    del src, dst, endpoint
    graph = CSRGraph.from_edges_consuming(num_vertices, edges, name=name)
    return assign_random_weights(graph, seed=seed + 1)


def kronecker(
    scale: int, avg_degree: float = 10.0, seed: int = 1, name: str | None = None
) -> CSRGraph:
    """Kronecker random graph at ``2**scale`` vertices (paper's KN graphs)."""
    if scale < 1 or scale > 30:
        raise ValueError("scale must be in [1, 30]")
    if name is None:
        name = f"kron{scale}"
    return rmat(2**scale, avg_degree, seed=seed, name=name)


def watts_strogatz(
    num_vertices: int,
    k: int,
    beta: float = 0.1,
    seed: int = 1,
    name: str = "ws",
) -> CSRGraph:
    """Directed Watts-Strogatz small-world graph.

    Each vertex gets ``k`` successor edges on a ring lattice; each edge is
    rewired to a uniform random destination with probability ``beta``.
    Degree distribution is near-regular (no power law), matching the
    paper's use of WS graphs to test non-power-law behaviour (Fig. 18).
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if k < 1 or k >= num_vertices:
        raise ValueError("k must be in [1, num_vertices)")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    rng = _rng(seed)
    src = np.repeat(np.arange(num_vertices, dtype=np.int64), k)
    offsets = np.tile(np.arange(1, k + 1, dtype=np.int64), num_vertices)
    dst = (src + offsets) % num_vertices
    rewire = rng.random(src.size) < beta
    dst[rewire] = rng.integers(0, num_vertices, size=int(rewire.sum()), dtype=np.int64)
    graph = CSRGraph.from_edges(num_vertices, src, dst, name=name)
    return assign_random_weights(graph, seed=seed + 1)


def community_graph(
    num_vertices: int,
    avg_degree: float,
    num_communities: int = 64,
    p_internal: float = 0.8,
    seed: int = 1,
    name: str = "community",
) -> CSRGraph:
    """Power-law graph with planted communities and id locality.

    Vertex ids are assigned contiguously per community, so intra-community
    edges have nearby destination ids.  This models the Twitter dataset's
    "dense clusters / high locality" character (Sec. VII-C).
    """
    if num_communities < 1 or num_communities > num_vertices:
        raise ValueError("num_communities must be in [1, num_vertices]")
    if not 0.0 <= p_internal <= 1.0:
        raise ValueError("p_internal must be in [0, 1]")
    rng = _rng(seed)
    base = rmat(num_vertices, avg_degree, seed=seed, name=name)
    src, dst, weights = base.edge_array()
    del base
    community_size = max(1, num_vertices // num_communities)
    internal = rng.random(src.size) < p_internal
    # Redirect internal edges to a destination inside the source's community.
    comm_start = (src // community_size) * community_size
    local = rng.integers(0, community_size, size=src.size, dtype=np.int64)
    dst = np.where(internal, np.minimum(comm_start + local, num_vertices - 1), dst)
    del internal, comm_start, local
    return CSRGraph.from_edges(num_vertices, src, dst, weights, name=name)


def shuffle_vertex_ids(graph: CSRGraph, seed: int = 1) -> CSRGraph:
    """Random-permute vertex ids, destroying id locality.

    Models the Friendster dataset's poor-locality character: the paper
    observes >80 % unuseful accessed data on FS even with perfect tiling
    (Fig. 3, Sec. VII-C).
    """
    rng = _rng(seed)
    permutation = rng.permutation(graph.num_vertices).astype(np.int64)
    return graph.relabel(permutation)
