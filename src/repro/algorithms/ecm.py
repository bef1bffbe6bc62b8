"""Edge-centric model (ECM) engine (Sec. VII-H).

Edge-centric accelerators (ForeGraph, Fabgraph, MOMSes) stream the edge
list in 2-D grid blocks: the vertex range is cut into P source tiles and Q
destination tiles, and block (p, q) holds the edges from tile p to tile q.
Within a block, source properties are read randomly within the source
range and destination temporaries are updated randomly within the
destination range; both ranges are small enough to cache on chip.

The engine here mirrors :class:`~repro.algorithms.vcm.VertexCentricEngine`:
functional NumPy updates plus per-block access traces.  Edge-centric
processing streams *all* edges every iteration (it cannot skip inactive
sources without extra indexing), which is the model's defining cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.algorithms.vcm import AlgorithmSpec, REDUCE_OPS, range_ids
from repro.utils.units import ceil_div


@dataclass
class BlockTrace:
    """Access record for one grid block (src tile p -> dst tile q)."""

    src_tile: int
    dst_tile: int
    src_lo: int
    src_hi: int
    dst_lo: int
    dst_hi: int
    edge_src: np.ndarray = field(repr=False)
    edge_dst: np.ndarray = field(repr=False)
    touched_dst: np.ndarray = field(repr=False)

    @property
    def num_edges(self) -> int:
        return self.edge_src.size


@dataclass
class ECIterationTrace:
    """Access record for one edge-centric iteration."""

    iteration: int
    num_src_tiles: int
    num_dst_tiles: int
    blocks: list[BlockTrace]
    #: per-dst-tile apply destinations (all vertices when applies_all)
    apply_dst: list[np.ndarray]
    changed: int

    @property
    def num_edges(self) -> int:
        return sum(b.num_edges for b in self.blocks)


class EdgeCentricEngine:
    """Grid-partitioned edge-centric execution of an algorithm spec."""

    #: every iteration streams every block and applies the same
    #: destinations (see :meth:`_build_grid`), so the address streams
    #: repeat for every algorithm
    stationary = True

    def __init__(
        self,
        spec: AlgorithmSpec,
        src_tile_width: int,
        dst_tile_width: int,
    ) -> None:
        if src_tile_width <= 0 or dst_tile_width <= 0:
            raise ValueError("tile widths must be positive")
        self.spec = spec
        self.graph = spec.graph
        n = self.graph.num_vertices
        self.src_tile_width = min(src_tile_width, max(1, n))
        self.dst_tile_width = min(dst_tile_width, max(1, n))
        self.num_src_tiles = ceil_div(max(1, n), self.src_tile_width)
        self.num_dst_tiles = ceil_div(max(1, n), self.dst_tile_width)
        self.prop = spec.init_prop.copy()
        self.iteration = 0
        self._reduce_ufunc, self._identity = REDUCE_OPS[spec.reduce_name]
        self._blocks, self._column_dst = self._build_grid()
        self._converged = False

    def _build_grid(
        self,
    ) -> tuple[
        list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        list[np.ndarray],
    ]:
        """The non-empty grid blocks, each with its touched destinations,
        and every destination column's union of them.

        Every iteration streams every block, so these sets never change:
        they are read once here off range bitmaps (the columns partition
        one bitmap over all vertices).
        """
        n = self.graph.num_vertices
        src, dst, weight = self.graph.edge_array()
        p = src // self.src_tile_width
        q = dst // self.dst_tile_width
        # Column-major (destination-tile outer) ordering: GridGraph streams
        # one destination tile's column of blocks before moving on.
        key = q * self.num_src_tiles + p
        order = np.argsort(key, kind="stable")
        src, dst, weight, key = src[order], dst[order], weight[order], key[order]
        bounds = np.searchsorted(
            key, np.arange(self.num_src_tiles * self.num_dst_tiles + 1)
        )
        column_hit = np.zeros(n, dtype=bool)
        blocks = []
        for b in range(self.num_src_tiles * self.num_dst_tiles):
            lo, hi = bounds[b], bounds[b + 1]
            if lo == hi:
                continue
            q_idx, p_idx = divmod(b, self.num_src_tiles)
            dst_lo, dst_hi = self._dst_range(q_idx)
            hit = np.zeros(dst_hi - dst_lo, dtype=bool)
            hit[dst[lo:hi] - dst_lo] = True
            touched = range_ids(hit, dst_lo)
            column_hit[touched] = True
            blocks.append(
                (p_idx, q_idx, src[lo:hi], dst[lo:hi], weight[lo:hi], touched)
            )
        columns = []
        for q_idx in range(self.num_dst_tiles):
            lo, hi = self._dst_range(q_idx)
            columns.append(range_ids(column_hit[lo:hi], lo))
        return blocks, columns

    @property
    def num_tiles(self) -> int:
        """Destination tiles: the grid's columns."""
        return self.num_dst_tiles

    def _dst_range(self, q_idx: int) -> tuple[int, int]:
        lo = q_idx * self.dst_tile_width
        return lo, min(lo + self.dst_tile_width, self.graph.num_vertices)

    @property
    def converged(self) -> bool:
        return self._converged

    def step(self) -> ECIterationTrace:
        """Run one synchronous edge-centric iteration."""
        spec = self.spec
        n = self.graph.num_vertices
        prop_old = self.prop
        vtemp = np.full(n, self._identity, dtype=np.float64)
        blocks: list[BlockTrace] = []
        for p_idx, q_idx, e_src, e_dst, e_w, touched in self._blocks:
            contributions = spec.process(
                e_w.astype(np.float64), prop_old[e_src], e_src
            )
            self._reduce_ufunc.at(vtemp, e_dst, contributions)
            dst_lo, dst_hi = self._dst_range(q_idx)
            blocks.append(
                BlockTrace(
                    src_tile=p_idx,
                    dst_tile=q_idx,
                    src_lo=p_idx * self.src_tile_width,
                    src_hi=min((p_idx + 1) * self.src_tile_width, n),
                    dst_lo=dst_lo,
                    dst_hi=dst_hi,
                    edge_src=e_src,
                    edge_dst=e_dst,
                    touched_dst=touched,
                )
            )

        apply_lists: list[np.ndarray] = []
        changed_total = 0
        prop_new = prop_old.copy()
        for q_idx in range(self.num_dst_tiles):
            if spec.applies_all_vertices:
                apply_dst = np.arange(*self._dst_range(q_idx), dtype=np.int64)
            else:
                apply_dst = self._column_dst[q_idx]
            if apply_dst.size:
                old_vals = prop_old[apply_dst]
                new_vals = spec.apply(old_vals, vtemp[apply_dst], apply_dst)
                if spec.convergence_tol > 0.0:
                    changed = np.abs(new_vals - old_vals) > spec.convergence_tol
                else:
                    changed = new_vals != old_vals
                changed_total += int(np.count_nonzero(changed))
                prop_new[apply_dst] = new_vals
            apply_lists.append(apply_dst)

        trace = ECIterationTrace(
            iteration=self.iteration,
            num_src_tiles=self.num_src_tiles,
            num_dst_tiles=self.num_dst_tiles,
            blocks=blocks,
            apply_dst=apply_lists,
            changed=changed_total,
        )
        self.prop = prop_new
        self._converged = changed_total == 0
        self.iteration += 1
        return trace

    def run_iter(self, max_iterations: int = 40) -> Iterator[ECIterationTrace]:
        """Lazily yield traces until convergence or the iteration cap."""
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for _ in range(max_iterations):
            if self._converged:
                return
            yield self.step()
