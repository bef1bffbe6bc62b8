"""Destination-range tiling of a CSR graph (Fig. 2b, Sec. II-B).

Graph tiling restricts the destination vertices of each pass to a
contiguous range (a *tile*) so the random accesses to the temporary vertex
property array stay within a working set that fits on chip.  The cost is
repetition: the source-major topology must be re-walked once per tile, and
row indices exist separately per tile.

:class:`TiledCSR` materialises, per tile, the edge list sorted by source --
exactly the stream the accelerator's prefetcher would fetch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.sorting import packed_key_fits, run_starts
from repro.utils.units import ceil_div

if TYPE_CHECKING:
    import os


def tile_count(num_vertices: int, tile_width: int) -> int:
    """Number of destination tiles for a given tile width."""
    if tile_width <= 0:
        raise ValueError("tile_width must be positive")
    return ceil_div(num_vertices, tile_width)


def tile_row_index(t_src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A tile's ``(src_unique, src_edge_start)`` from its ascending sources.

    Both are read off the run starts of ``t_src``: the same arrays as
    ``np.unique(t_src, return_index=True)`` with ``t_src.size`` appended
    to the starts, without the sort.
    """
    starts = run_starts(t_src)
    edge_start = np.empty(starts.size + 1, dtype=np.int64)
    edge_start[:-1] = starts
    edge_start[-1] = t_src.size
    return t_src[starts], edge_start


@dataclass(frozen=True)
class Tile:
    """One destination tile: edges (grouped by source) whose dst is in range.

    Attributes:
        index: tile position.
        dst_lo / dst_hi: destination-id range [dst_lo, dst_hi).
        src: ``int64[n_edges]`` edge sources, ascending.
        dst: ``int64[n_edges]`` edge destinations within the range.
        weight: ``int64[n_edges]`` edge weights.
        src_unique: unique source ids present in this tile.
        src_edge_start: prefix offsets into src/dst per unique source
            (``len(src_unique)+1``), i.e. a per-tile CSR row index.
    """

    index: int
    dst_lo: int
    dst_hi: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    src_unique: np.ndarray
    src_edge_start: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.src.size

    @property
    def width(self) -> int:
        return self.dst_hi - self.dst_lo


class TiledCSR:
    """Pre-computed destination tiling of a graph.

    Building the tiling is a one-off cost per (graph, tile_width); the
    accelerator models re-walk tiles every iteration, which is where the
    paper's topology-repetition cost comes from.

    ``backing`` selects where the sorted tile arrays live:

    - ``"memory"`` (default): the global stable packed-key argsort below,
      every tile's arrays resident for the tiling's lifetime.
    - ``"disk"``: a :mod:`repro.graph.tilestore` store built by two
      streaming passes over the CSR (O(chunk + tiles) transient memory,
      no sort of the edges: sorted CSR rows grouped stably by tile are
      already in tile order) and attached as memmaps;
      ``__getitem__`` assembles tiles whose src/dst/weight are memmap
      *views*, so the chunk-streaming memory paths pull tile bytes
      straight off disk and the OS drops them after each walk.  A
      graph whose CSR rows are not sorted by destination is refused
      with ``ValueError``.  Tile contents are bit-identical to the
      in-memory build (pinned by the differential suite in
      ``tests/test_tilestore.py``).
    """

    def __init__(
        self,
        graph: CSRGraph,
        tile_width: int,
        with_weights: bool = True,
        backing: str = "memory",
        store_root: str | os.PathLike | None = None,
    ) -> None:
        if tile_width <= 0:
            raise ValueError("tile_width must be positive")
        if backing not in ("memory", "disk"):
            raise ValueError(
                f"backing must be 'memory' or 'disk', got {backing!r}"
            )
        self.graph = graph
        self.tile_width = min(tile_width, max(1, graph.num_vertices))
        self.num_tiles = tile_count(graph.num_vertices, self.tile_width)
        #: algorithms that never read edge weights (PR/BFS/CC) skip the
        #: per-tile weight copy; ``tile.weight`` is then a zero-stride
        #: all-zeros view (same dtype/shape, no memory)
        self.with_weights = with_weights
        self.backing = backing
        if backing == "disk":
            from repro.graph import tilestore

            self.store = tilestore.build_or_attach(
                graph, self.tile_width, with_weights, root=store_root
            )
            self._tiles = None
        else:
            self.store = None
            self._tiles: list[Tile] = self._build()

    def _build(self) -> list[Tile]:
        # Memory-lean construction: no whole-graph pre-copies, originals
        # freed one by one as their sorted copies appear.  At paper
        # scale the edge arrays are ~64 MB each, and the previous
        # all-at-once reorder held eight of them plus sort temporaries
        # -- the transient-RSS peak of a run.  Tile boundaries come from
        # per-tile counts (== searchsorted on the sorted tile ids).
        graph = self.graph
        n_v = max(1, graph.num_vertices)
        src = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees()
        )
        key = graph.indices // self.tile_width
        counts = np.bincount(key, minlength=self.num_tiles)
        boundaries = np.zeros(self.num_tiles + 1, dtype=np.int64)
        np.cumsum(counts, out=boundaries[1:])
        del counts
        if packed_key_fits(self.num_tiles, n_v, n_v):
            # pack (tile, src, dst) into one int64 key, built in place --
            # a stable argsort of the packed key is exactly the stable
            # lexsort by (tile, src, dst), without its per-key buffers
            key *= n_v
            key += src
            key *= n_v
            key += graph.indices
            order = np.argsort(key, kind="stable")
        else:
            order = np.lexsort((graph.indices, src, key))
        del key
        src = src[order]
        dst = graph.indices[order]
        weight = graph.weights[order] if self.with_weights else None
        del order
        tiles: list[Tile] = []
        for t in range(self.num_tiles):
            lo, hi = boundaries[t], boundaries[t + 1]
            t_src = src[lo:hi]
            uniq, edge_start = tile_row_index(t_src)
            tiles.append(
                Tile(
                    index=t,
                    dst_lo=t * self.tile_width,
                    dst_hi=min((t + 1) * self.tile_width, graph.num_vertices),
                    src=t_src,
                    dst=dst[lo:hi],
                    weight=(
                        weight[lo:hi] if weight is not None
                        else np.broadcast_to(
                            np.zeros(1, dtype=np.int64), (int(hi - lo),)
                        )
                    ),
                    src_unique=uniq,
                    src_edge_start=edge_start,
                )
            )
        return tiles

    def _disk_tile(self, index: int) -> Tile:
        src, dst, weight, src_unique, src_edge_start = (
            self.store.tile_arrays(index)
        )
        if weight is None:
            weight = np.broadcast_to(
                np.zeros(1, dtype=np.int64), (src.size,)
            )
        return Tile(
            index=index,
            dst_lo=index * self.tile_width,
            dst_hi=min(
                (index + 1) * self.tile_width, self.graph.num_vertices
            ),
            src=src,
            dst=dst,
            weight=weight,
            src_unique=src_unique,
            src_edge_start=src_edge_start,
        )

    def __len__(self) -> int:
        return self.num_tiles

    def __getitem__(self, index: int) -> Tile:
        if self._tiles is not None:
            return self._tiles[index]
        if index < 0:
            index += self.num_tiles
        if not 0 <= index < self.num_tiles:
            raise IndexError("tile index out of range")
        return self._disk_tile(index)

    def __iter__(self) -> Iterator[Tile]:
        if self._tiles is not None:
            return iter(self._tiles)
        return (self._disk_tile(t) for t in range(self.num_tiles))

    def total_edges(self) -> int:
        """Sum of per-tile edges; equals the graph's edge count."""
        if self.store is not None:
            return self.store.num_edges
        return sum(t.num_edges for t in self._tiles)


def perfect_tile_width(
    num_vertices: int, onchip_bytes: int, bytes_per_vertex: int = 8
) -> int:
    """Tile width for *perfect tiling*: the tile's Vtemp fits on chip.

    Used by the scratchpad baselines (Graphicionado, GraphDyns-SPM), which
    require the whole destination range to be resident (Sec. VII-A).
    """
    width = max(1, onchip_bytes // bytes_per_vertex)
    return min(width, max(1, num_vertices))
