"""Compressed sparse row (CSR) graph storage.

The accelerator models consume graphs in CSR form: a row-pointer array
(``indptr``, |V|+1 entries) and a column-index array (``indices``, |E|
entries), optionally with an integer edge-weight array.  This mirrors the
topology layout the paper charges to memory traffic (row indices
proportional to |V|, column indices proportional to |E|, Sec. II-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.sorting import packed_key_fits, pair_order


def _first_of_runs(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows that differ from the previous row in some column.

    On rows sorted by these columns it keeps the first of each run of
    equal rows; row 0 is always kept.
    """
    first = np.zeros(columns[0].size, dtype=bool)
    first[:1] = True
    for column in columns:
        first[1:] |= column[1:] != column[:-1]
    return first


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in CSR (push/source-major) layout.

    Attributes:
        indptr: ``int64[num_vertices + 1]`` row pointers.
        indices: ``int64[num_edges]`` destination vertex ids, grouped by
            source and sorted within each source.
        weights: ``int64[num_edges]`` integer edge weights (paper assigns
            random integers in [0, 255] to unweighted graphs).
        name: optional human-readable dataset name.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    name: str = field(default="graph", compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array with >= 1 entry")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != indices.size:
            raise ValueError("indptr[-1] must equal the number of edges")
        if weights.size != indices.size:
            raise ValueError("weights must have one entry per edge")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge destination out of range")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    @property
    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (``int64[num_vertices]``)."""
        return np.diff(self.indptr)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Destination ids of ``vertex``'s outgoing edges."""
        lo, hi = self.indptr[vertex], self.indptr[vertex + 1]
        return self.indices[lo:hi]

    def edge_weights(self, vertex: int) -> np.ndarray:
        """Weights of ``vertex``'s outgoing edges."""
        lo, hi = self.indptr[vertex], self.indptr[vertex + 1]
        return self.weights[lo:hi]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        dedupe: bool = True,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a CSR graph from parallel src/dst (and optional weight) arrays.

        Self-loops are kept (some algorithms tolerate them); duplicate
        parallel edges are removed when ``dedupe`` is True, keeping the first
        weight encountered.  The caller's arrays are not modified.
        """
        return cls._build(num_vertices, [src, dst], weights, dedupe, name)

    @classmethod
    def from_edges_consuming(
        cls,
        num_vertices: int,
        edges: list[np.ndarray],
        *,
        name: str = "graph",
    ) -> "CSRGraph":
        """:meth:`from_edges` (dedupe, zero weights) taking *ownership*
        of ``edges = [src, dst]``: the list is emptied so each original
        array is freed as soon as the sort key is built from it.

        At paper scale the edge arrays are hundreds of megabytes; the
        plain :meth:`from_edges` call necessarily keeps the caller's
        originals alive next to the sort key, which makes graph
        *generation* (not simulation) the transient-RSS peak of a run.
        Generators use this entry point to stay within the paper-profile
        memory budget: once its inputs are dropped the build holds at
        most two edge-sized arrays.  The produced graph is identical.
        """
        return cls._build(num_vertices, edges, None, True, name)

    @classmethod
    def _build(
        cls,
        num_vertices: int,
        edges: list[np.ndarray],
        weights: np.ndarray | None,
        dedupe: bool,
        name: str,
    ) -> "CSRGraph":
        """The one CSR build behind both constructors; empties ``edges``.

        Edges are ordered by ``(src, dst)`` as one packed ``int64`` key
        ``src * num_vertices + dst``.  Without weights, equal keys are
        equal edges, so the key itself is sorted in place and both CSR
        arrays are read off it.  With weights, a stable
        :func:`~repro.utils.sorting.pair_order` keeps parallel edges in
        input order, so ``dedupe`` keeps each one's first weight.  Beyond
        the packed-key guard both take ``np.lexsort``.
        """
        src, dst = (np.asarray(ids, dtype=np.int64) for ids in edges)
        edges.clear()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        if src.size and (src.min() < 0 or src.max() >= num_vertices):
            raise ValueError("edge source out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
            raise ValueError("edge destination out of range")
        if weights is None and packed_key_fits(num_vertices, num_vertices):
            key = src * num_vertices
            key += dst
            del src, dst  # a consumed build's inputs free here
            key.sort()
            if dedupe:
                key = key[_first_of_runs(key)]
            sources = key // num_vertices
            indices = np.remainder(key, num_vertices, out=key)
            # untouched zeros stay unmapped; generators overwrite them anyway
            weights = np.zeros(indices.size, dtype=np.int64)
        else:
            if weights is None:
                weights = np.zeros(src.size, dtype=np.int64)
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != src.shape:
                raise ValueError("weights must have one entry per edge")
            order = pair_order(src, dst, num_vertices)
            sources = src[order]
            indices = dst[order]
            del src, dst
            if dedupe:
                keep = _first_of_runs(sources, indices)
                # sequential rebinds: one edge-sized copy alive at a time
                sources = sources[keep]
                indices = indices[keep]
                order = order[keep]
                del keep
            weights = weights[order]
            del order
        counts = np.bincount(sources, minlength=num_vertices)
        del sources
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=indices, weights=weights, name=name)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (src, dst, weight) parallel arrays in CSR order."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degrees())
        return src, self.indices.copy(), self.weights.copy()

    def reversed(self) -> "CSRGraph":
        """Return the transpose graph (every edge direction flipped)."""
        src, dst, weights = self.edge_array()
        return CSRGraph.from_edges(
            self.num_vertices, dst, src, weights, dedupe=False, name=f"{self.name}^T"
        )

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """Return a copy of this graph with a new weight array."""
        return CSRGraph(
            indptr=self.indptr, indices=self.indices, weights=weights, name=self.name
        )

    def relabel(self, permutation: np.ndarray) -> "CSRGraph":
        """Return an isomorphic graph with vertex ids mapped by ``permutation``.

        ``permutation[v]`` is the new id of old vertex ``v``.  Used to
        destroy (shuffle) or impose (sort-by-community) vertex-id locality.
        """
        n = self.num_vertices
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape != (n,):
            raise ValueError("permutation must have one entry per vertex")
        # n ids in [0, n) that mark every id are a bijection
        bijective = not n or (permutation.min() >= 0 and permutation.max() < n)
        if bijective:
            seen = np.zeros(n, dtype=bool)
            seen[permutation] = True
            bijective = bool(seen.all())
        if not bijective:
            raise ValueError(
                f"permutation is not a bijection of the vertex ids [0, {n})"
            )
        src, dst, weights = self.edge_array()
        return CSRGraph.from_edges(
            self.num_vertices,
            permutation[src],
            permutation[dst],
            weights,
            dedupe=False,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, avg_deg={self.average_degree:.2f})"
        )
