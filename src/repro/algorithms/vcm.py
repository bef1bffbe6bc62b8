"""Vertex-centric model (VCM) engine implementing Algorithm 1 of the paper.

The engine is *functional*: it computes exact algorithm results with NumPy,
while simultaneously recording the per-tile access structure (active
sources, traversed edges, touched destinations) that the accelerator
timing models replay through their memory hierarchies.

Semantics
---------
- Synchronous ("Jacobi") iterations: ``process`` reads the property array
  from the previous iteration; ``apply`` writes the next one.  Destination
  tiles partition the vertex set, so each vertex is applied at most once
  per iteration.
- ``reduce`` is one of the three commutative monoids used by the paper's
  workloads: ``add`` (PageRank), ``min`` (BFS/CC/SSSP), ``max`` (SSWP).
- A vertex is activated for the next iteration when ``apply`` changed its
  property (Algorithm 1 lines 8-10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import TiledCSR

#: reduce-operator name -> (ufunc used for scatter-reduce, identity value)
REDUCE_OPS: dict[str, tuple[np.ufunc, float]] = {
    "add": (np.add, 0.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


def range_ids(hit: np.ndarray, lo: int) -> np.ndarray:
    """Ascending ``int64`` ids ``lo + i`` of the set entries of ``hit``.

    ``hit`` is a bitmap over the id range ``[lo, lo + hit.size)``, marked
    at ``id - lo``.  The result equals ``np.unique`` of the marked ids,
    in O(range) instead of a sort of every marked id.
    """
    return np.flatnonzero(hit).astype(np.int64, copy=False) + lo


@dataclass
class AlgorithmSpec:
    """Application-defined operators of Algorithm 1 plus initial state.

    Attributes:
        name: short algorithm name ("PR", "BFS", ...).
        graph: the input graph.
        process: ``f(weights, src_prop, src_ids) -> contributions`` --
            line 4 of Algorithm 1, vectorised over edges.
        reduce_name: "add" | "min" | "max" -- line 5.
        apply: ``f(prop_old, vtemp, vertex_ids) -> prop_new`` -- line 7,
            vectorised over vertices.
        init_prop: initial property array (``float64[|V|]``).
        init_active: initially active vertex ids.
        applies_all_vertices: True when apply must visit every vertex of a
            tile (PageRank); False when only touched destinations are
            applied (active-vertex algorithms).
        uses_weights: whether ``process`` consumes edge weights (affects
            topology traffic accounting).
        convergence_tol: treat |new - old| <= tol as unchanged (PageRank).
    """

    name: str
    graph: CSRGraph
    process: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    reduce_name: str
    apply: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    init_prop: np.ndarray
    init_active: np.ndarray
    applies_all_vertices: bool = False
    uses_weights: bool = False
    convergence_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.reduce_name not in REDUCE_OPS:
            raise ValueError(f"unknown reduce op {self.reduce_name!r}")
        self.init_prop = np.asarray(self.init_prop, dtype=np.float64)
        if self.init_prop.shape != (self.graph.num_vertices,):
            raise ValueError("init_prop must have one entry per vertex")
        self.init_active = np.asarray(self.init_active, dtype=np.int64)

    @property
    def reduce_identity(self) -> float:
        return REDUCE_OPS[self.reduce_name][1]


@dataclass
class TileTrace:
    """Access record for one destination tile within one iteration.

    All arrays are vertex ids (``int64``); the accelerator models translate
    them to byte addresses.
    """

    tile_index: int
    dst_lo: int
    dst_hi: int
    #: number of sources with >= 1 edge into this tile that are active
    active_sources: int
    #: edge endpoints traversed this tile (sources ascending)
    edge_src: np.ndarray = field(repr=False)
    edge_dst: np.ndarray = field(repr=False)
    #: unique destinations touched by reduce, ascending
    touched_dst: np.ndarray = field(repr=False)
    #: destinations visited by apply (all tile vertices for PR)
    apply_dst: np.ndarray = field(repr=False)
    #: destinations whose property changed (activated for next iteration)
    changed_dst: np.ndarray = field(repr=False)

    @property
    def num_edges(self) -> int:
        return self.edge_src.size

    @property
    def width(self) -> int:
        return self.dst_hi - self.dst_lo


@dataclass
class IterationTrace:
    """Access record for one full iteration (all tiles)."""

    iteration: int
    #: number of globally active vertices at the start of the iteration
    active_vertices: int
    tiles: list[TileTrace]

    @property
    def num_edges(self) -> int:
        return sum(t.num_edges for t in self.tiles)

    @property
    def next_active(self) -> int:
        return sum(t.changed_dst.size for t in self.tiles)


class VertexCentricEngine:
    """Drives Algorithm 1 over a (possibly tiled) graph.

    Args:
        spec: the algorithm's operators and initial state.
        tile_width: destination-tile width in vertices; ``None`` or ``0``
            disables tiling (a single tile spanning all vertices; an
            empty graph arrives with width 0 and has no tiles).
    """

    def __init__(
        self,
        spec: AlgorithmSpec,
        tile_width: int | None = None,
        edge_chunk: int | None = None,
        tile_backing: str = "memory",
        tile_store_root=None,
    ) -> None:
        if tile_width is not None and tile_width < 0:
            raise ValueError("tile_width must be >= 0 (0 or None: one tile)")
        if edge_chunk is not None and edge_chunk < 1:
            raise ValueError("edge_chunk must be >= 1")
        self.spec = spec
        self.graph = spec.graph
        width = tile_width if tile_width else self.graph.num_vertices
        # With tile_backing="disk" each tile's src/dst/weight are memmap
        # views assembled per visit in the walk below, so the sorted edge
        # copies are paged in while the tile is processed and dropped by
        # the OS afterwards -- nothing edge-sized stays resident.
        self.tiled = TiledCSR(
            self.graph,
            max(1, width),
            with_weights=spec.uses_weights,
            backing=tile_backing,
            store_root=tile_store_root,
        )
        self.prop = spec.init_prop.copy()
        self.active_mask = np.zeros(self.graph.num_vertices, dtype=bool)
        self.active_mask[spec.init_active] = True
        self.iteration = 0
        #: process/reduce over at most this many edges at a time, keeping
        #: per-edge float temporaries O(chunk) (paper-scale profiles);
        #: identical results -- ufunc.at applies updates in element order
        #: regardless of the split, and every spec's ``process`` is
        #: elementwise.  None = whole tile.
        self.edge_chunk = edge_chunk
        self._reduce_ufunc, self._identity = REDUCE_OPS[spec.reduce_name]

    @property
    def num_active(self) -> int:
        return int(np.count_nonzero(self.active_mask))

    def converged(self) -> bool:
        return self.num_active == 0

    # ------------------------------------------------------------------
    def step(self) -> IterationTrace:
        """Run one synchronous iteration; returns its access trace."""
        spec = self.spec
        prop_old = self.prop
        prop_new = prop_old.copy()
        next_active = np.zeros_like(self.active_mask)
        all_active = spec.applies_all_vertices
        n_active = self.num_active
        tiles: list[TileTrace] = []

        for tile in self.tiled:
            if all_active:
                e_src, e_dst, e_w = tile.src, tile.dst, tile.weight
                active_sources = tile.src_unique.size
            else:
                mask = self.active_mask[tile.src]
                e_src = tile.src[mask]
                e_dst = tile.dst[mask]
                e_w = tile.weight[mask]
                active_sources = int(
                    np.count_nonzero(self.active_mask[tile.src_unique])
                )

            vtemp = np.full(tile.width, self._identity, dtype=np.float64)
            # touched destinations as a bitmap over the tile, marked per
            # chunk so per-edge temporaries stay O(chunk)
            hit = np.zeros(tile.width, dtype=bool)
            if e_src.size:
                chunk = self.edge_chunk or e_src.size
                for lo in range(0, e_src.size, chunk):
                    sl = slice(lo, lo + chunk)
                    contributions = spec.process(
                        e_w[sl].astype(np.float64), prop_old[e_src[sl]],
                        e_src[sl],
                    )
                    local = e_dst[sl] - tile.dst_lo
                    self._reduce_ufunc.at(vtemp, local, contributions)
                    hit[local] = True
            touched = range_ids(hit, tile.dst_lo)

            if all_active:
                apply_dst = np.arange(tile.dst_lo, tile.dst_hi, dtype=np.int64)
            else:
                apply_dst = touched

            if apply_dst.size:
                old_vals = prop_old[apply_dst]
                new_vals = spec.apply(
                    old_vals, vtemp[apply_dst - tile.dst_lo], apply_dst
                )
                if spec.convergence_tol > 0.0:
                    changed_mask = (
                        np.abs(new_vals - old_vals) > spec.convergence_tol
                    )
                else:
                    changed_mask = new_vals != old_vals
                changed = apply_dst[changed_mask]
                prop_new[apply_dst] = new_vals
            else:
                changed = apply_dst

            next_active[changed] = True
            tiles.append(
                TileTrace(
                    tile_index=tile.index,
                    dst_lo=tile.dst_lo,
                    dst_hi=tile.dst_hi,
                    active_sources=active_sources,
                    edge_src=e_src,
                    edge_dst=e_dst,
                    touched_dst=touched,
                    apply_dst=apply_dst,
                    changed_dst=changed,
                )
            )

        trace = IterationTrace(
            iteration=self.iteration, active_vertices=n_active, tiles=tiles
        )
        self.prop = prop_new
        if all_active:
            # PageRank-style: all vertices stay active; convergence is
            # signalled by an empty changed set.
            if trace.next_active == 0:
                self.active_mask[:] = False
            # else: keep everything active.
        else:
            self.active_mask = next_active
        self.iteration += 1
        return trace

    def run(self, max_iterations: int = 40) -> list[IterationTrace]:
        """Run until convergence or ``max_iterations`` (paper caps at 40)."""
        return list(self.run_iter(max_iterations))

    def run_iter(self, max_iterations: int = 40) -> Iterator[IterationTrace]:
        """Lazily yield per-iteration traces until convergence or the cap."""
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for _ in range(max_iterations):
            if self.converged():
                return
            yield self.step()
