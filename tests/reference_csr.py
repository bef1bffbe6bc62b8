"""Reference CSR build: edges ordered by a two-key ``np.lexsort``.

``CSRGraph.from_edges`` and ``from_edges_consuming`` order edges by one
packed ``src * |V| + dst`` key.  :func:`reference_csr_arrays` is the
build they replaced, kept once here as the oracle the differential
suite in ``tests/test_csr.py`` compares them against, array for array.
"""

import numpy as np


def reference_csr_arrays(num_vertices, src, dst, weights=None, *, dedupe=True):
    """``(indptr, indices, weights)`` of the graph on these edges.

    Edges are sorted by ``(src, dst)`` with a stable ``np.lexsort``, so
    parallel edges keep their input order; with ``dedupe`` only the first
    of each run of equal ``(src, dst)`` pairs, and its weight, is kept.
    Missing weights are zeros.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if weights is None:
        weights = np.zeros(src.size, dtype=np.int64)
    else:
        weights = np.asarray(weights, dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst, weights = src[order], dst[order], weights[order]
    if dedupe and src.size:
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst, weights = src[keep], dst[keep], weights[keep]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst, weights
