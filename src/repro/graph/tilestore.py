"""Disk-backed tile store: bucketed external sort + memmapped tile arrays.

The in-memory :class:`~repro.graph.partition.TiledCSR` build performs a
global stable argsort of a packed (tile, src, dst) key, which
materialises ~2 extra edge-sized temporaries and then keeps every
tile's sorted copies resident for the whole run -- the RSS ceiling of
paper-profile sweeps.  This module replaces that with an *external*
two-pass build whose transient memory is O(bucket), not O(edges):

1. **Scatter pass.**  One sequential walk over the CSR edge arrays in
   bounded chunks; each chunk is grouped by destination-tile id (a
   stable argsort of the id narrowed to the smallest type that holds
   it, radix-sorted up to 65,536 tiles) and appended to a per-tile-row
   *spill bucket* (a raw int64 row file in a temporary directory).
   Because the walk is in CSR order and appends preserve it, every
   bucket holds its tile's edges in original CSR (src, dst)-sorted
   order.
2. **Per-bucket sort pass.**  Each bucket is loaded alone, stably
   sorted by (src, dst) -- one stable argsort of the packed key
   ``src * |V| + dst``, a single run on a bucket already in CSR order,
   with ``np.lexsort`` beyond the int64 guard.  Composed with the
   grouping this equals the global stable (tile, src, dst) sort
   bit-for-bit.  The tile is written into memmapped ``.npy`` output
   arrays, together with the per-tile ``src_unique`` /
   ``src_edge_start`` CSR row index read off the run starts of the
   sorted sources.  The bucket file is deleted as soon as it is
   consumed.

The finished store is a directory of plain ``.npy`` arrays plus a
``meta.json`` manifest, committed with the same tmp-dir + ``os.replace``
first-writer-wins discipline as :func:`repro.graph.graphio.to_memmap`:
a killed build can never leave a store that attaches, and concurrent
builders (parallel sweep workers) converge on one copy.  Stores are
keyed by a canonical content digest over (graph arrays, tile width,
with_weights), so repeat runs and pool workers *attach* an existing
store instead of rebuilding -- the tile analogue of the shared
memmapped CSR graphs.

Spill-bucket hygiene: the scatter pass runs inside a
``tempfile.TemporaryDirectory`` (removed on any exception), and
``build_or_attach`` sweeps stale partial build directories left behind
by a SIGKILLed predecessor before starting, matching the
checkpoint-store "atomic or missing" discipline.  A manifest whose
arrays are missing or *short* (truncated by a crash or disk-full) reads
as absent and the store is rebuilt.
"""

from __future__ import annotations

import atexit
import json
import os
import pathlib
import shutil
import tempfile
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.lib.format import open_memmap

from repro.utils.sorting import pair_order, run_starts

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

#: format marker written into a tile store's meta.json
TILE_STORE_FORMAT = 1

#: default scatter-chunk / spill-buffer size in edges; transient build
#: memory is O(max(bucket_edges, largest tile's edges)), so smaller
#: values bound the scatter pass tighter without changing the output
DEFAULT_BUCKET_EDGES = 1 << 20

#: the memmapped output arrays of a complete store, in manifest order
_STORE_ARRAYS = (
    "src",
    "dst",
    "boundaries",
    "src_unique",
    "uniq_boundaries",
    "src_edge_start",
)

_HASH_CHUNK = 1 << 22

# -- default store root -----------------------------------------------------
#: explicit process-wide root (parallel sweep workers share one through
#: :func:`set_default_root`; the ``REPRO_TILE_STORE`` env var wins)
_DEFAULT_ROOT: pathlib.Path | None = None
#: lazily created per-process fallback root, removed at interpreter exit
_PROCESS_ROOT: pathlib.Path | None = None


def set_default_root(path: str | os.PathLike | None) -> pathlib.Path | None:
    """Set the process-wide default store root; returns the previous one.

    The parallel sweep orchestrator points every worker at a shared
    root, so the first worker that needs a (graph, tile_width) store
    builds it and the rest attach.
    """
    global _DEFAULT_ROOT
    previous = _DEFAULT_ROOT
    _DEFAULT_ROOT = None if path is None else pathlib.Path(path)
    return previous


def default_root() -> pathlib.Path:
    """The store root used when none is given explicitly.

    Resolution order: ``REPRO_TILE_STORE`` env var, the root installed
    by :func:`set_default_root`, then a per-process temporary directory
    (created on first use, removed at interpreter exit) so casual
    ``backing="disk"`` use never litters the filesystem.
    """
    env = os.environ.get("REPRO_TILE_STORE")
    if env:
        return pathlib.Path(env)
    if _DEFAULT_ROOT is not None:
        return _DEFAULT_ROOT
    global _PROCESS_ROOT
    if _PROCESS_ROOT is None:
        _PROCESS_ROOT = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-tilestore-")
        )
        atexit.register(shutil.rmtree, _PROCESS_ROOT, ignore_errors=True)
    return _PROCESS_ROOT


# -- canonical store digest -------------------------------------------------
def _hash_array(h: Any, array: np.ndarray) -> None:
    h.update(str(array.dtype).encode())
    h.update(str(array.size).encode())
    for lo in range(0, array.size, _HASH_CHUNK):
        # repro-lint: disable=RL004 -- deliberate chunk-bounded copy
        # (<= _HASH_CHUNK elems) to get a contiguous buffer for hashing
        h.update(np.ascontiguousarray(array[lo:lo + _HASH_CHUNK]).data)


def store_digest(
    graph: "CSRGraph", tile_width: int, with_weights: bool
) -> str:
    """Canonical content digest keying a (graph, tiling) store.

    Hashes the graph's actual arrays (not its name), so two datasets
    with identical topology share one store and a store can never be
    served for the wrong graph.  ``weights`` only participate when the
    tiling carries them.
    """
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(f"tilestore-v{TILE_STORE_FORMAT}".encode())
    h.update(f"|V={graph.num_vertices}|w={tile_width}".encode())
    h.update(f"|weights={int(bool(with_weights))}".encode())
    _hash_array(h, graph.indptr)
    _hash_array(h, graph.indices)
    if with_weights:
        _hash_array(h, graph.weights)
    return h.hexdigest()


# -- manifest validation ----------------------------------------------------
def _expected_arrays(meta: dict) -> dict[str, int] | None:
    arrays = meta.get("arrays")
    if not isinstance(arrays, dict):
        return None
    names = list(_STORE_ARRAYS)
    if meta.get("with_weights"):
        names.append("weight")
    if sorted(arrays) != sorted(names):
        return None
    return arrays


def store_valid(directory: str | os.PathLike) -> bool:
    """True when ``directory`` holds a complete, attachable tile store.

    A store with a missing, unparsable, or *short* array (header shape
    disagreeing with the manifest, or file bytes truncated below the
    header's promise) reads as absent -- the "atomic or missing"
    discipline of the sweep checkpoint store.
    """
    directory = pathlib.Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        return False
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        return False
    if meta.get("format") != TILE_STORE_FORMAT:
        return False
    arrays = _expected_arrays(meta)
    if arrays is None:
        return False
    for name, length in arrays.items():
        path = directory / f"{name}.npy"
        try:
            mapped = np.load(path, mmap_mode="r")
        except (OSError, ValueError):
            return False
        if mapped.shape != (int(length),) or mapped.dtype != np.int64:
            return False
        # a truncated file can still parse its header; mapping the last
        # element forces the byte range to exist
        try:
            if mapped.size:
                int(mapped[-1])
        except (IndexError, OSError, ValueError):
            return False
    return True


# -- build ------------------------------------------------------------------
def _edge_sources(indptr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Source vertex of edges [lo, hi), ``lo < hi``, in CSR order (==
    np.repeat of the degree sequence, computed per chunk instead of per
    graph): each row the chunk spans repeats by its edge count clipped
    to the chunk, so zero-degree rows repeat zero times."""
    first = int(np.searchsorted(indptr, lo, side="right")) - 1
    last = int(np.searchsorted(indptr, hi - 1, side="right")) - 1
    row_lo = np.maximum(indptr[first:last + 1], lo)
    row_hi = np.minimum(indptr[first + 1:last + 2], hi)
    return np.repeat(
        np.arange(first, last + 1, dtype=np.int64), row_hi - row_lo
    )


def _raw_to_npy(
    raw_path: pathlib.Path, npy_path: pathlib.Path, count: int
) -> None:
    """Convert a raw int64 append file into a .npy array, chunk-copied
    so the conversion stays O(chunk) like the build itself."""
    # repro-lint: disable=RL002 -- callers pass paths inside the store's
    # private build dir; the store root itself commits via os.replace
    out = open_memmap(npy_path, mode="w+", dtype=np.int64, shape=(count,))
    with open(raw_path, "rb") as handle:
        written = 0
        while written < count:
            n = min(_HASH_CHUNK, count - written)
            block = np.fromfile(handle, dtype=np.int64, count=n)
            if block.size != n:
                raise OSError(f"{raw_path} is short: {written + block.size} "
                              f"of {count} entries")
            out[written:written + n] = block
            written += n
    out.flush()
    del out
    raw_path.unlink()


def _external_sort_build(
    graph: "CSRGraph",
    tile_width: int,
    with_weights: bool,
    target: pathlib.Path,
    bucket_edges: int,
) -> None:
    """Build a complete store at ``target`` (which must not exist)."""
    from repro.graph.partition import tile_row_index
    from repro.utils.units import ceil_div

    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    num_edges = int(graph.num_edges)
    num_tiles = ceil_div(graph.num_vertices, tile_width)
    n_v = max(1, graph.num_vertices)
    ncols = 3 if with_weights else 2
    # the narrowest type that holds every tile id: NumPy sorts keys of
    # 16 bits or fewer stably by radix, and a stable sort's permutation
    # depends only on the key values
    tile_key_type = np.min_scalar_type(max(num_tiles - 1, 0))

    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f".{target.name}.tmp.{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        counts = np.zeros(max(1, num_tiles), dtype=np.int64)
        with tempfile.TemporaryDirectory(
            prefix=f".{target.name}.spill.{os.getpid()}.", dir=target.parent
        ) as spill:
            spill_dir = pathlib.Path(spill)
            # -- pass 1: scatter CSR chunks into per-tile spill buckets
            for lo in range(0, num_edges, bucket_edges):
                hi = min(lo + bucket_edges, num_edges)
                dst = np.asarray(indices[lo:hi])
                src = _edge_sources(indptr, lo, hi)
                key = (dst // tile_width).astype(tile_key_type)
                order = np.argsort(key, kind="stable")
                key = key[order]
                columns = [src[order], dst[order]]
                if with_weights:
                    columns.append(np.asarray(weights[lo:hi])[order])
                rows = np.stack(columns, axis=1)  # (n, ncols) C-order
                del src, dst, order, columns
                cuts = run_starts(key)
                tiles_here = key[cuts]
                cuts = np.append(cuts, key.size)
                counts += np.bincount(key, minlength=counts.size)
                for i, tile in enumerate(tiles_here.tolist()):
                    block = rows[cuts[i]:cuts[i + 1]]
                    with open(spill_dir / f"bucket_{tile}.bin", "ab") as f:
                        block.tofile(f)
                del key, rows
            # -- pass 2: sort each bucket alone, stream into the outputs
            boundaries = np.zeros(num_tiles + 1, dtype=np.int64)
            np.cumsum(counts[:num_tiles], out=boundaries[1:])
            out_src = open_memmap(
                tmp / "src.npy", mode="w+", dtype=np.int64, shape=(num_edges,)
            )
            out_dst = open_memmap(
                tmp / "dst.npy", mode="w+", dtype=np.int64, shape=(num_edges,)
            )
            out_w = (
                open_memmap(
                    tmp / "weight.npy", mode="w+", dtype=np.int64,
                    shape=(num_edges,),
                )
                if with_weights else None
            )
            uniq_counts = np.zeros(num_tiles, dtype=np.int64)
            uniq_raw = tmp / "src_unique.raw"
            start_raw = tmp / "src_edge_start.raw"
            with open(uniq_raw, "wb") as uniq_f, \
                    open(start_raw, "wb") as start_f:
                for t in range(num_tiles):
                    lo, hi = int(boundaries[t]), int(boundaries[t + 1])
                    bucket = spill_dir / f"bucket_{t}.bin"
                    if hi > lo:
                        data = np.fromfile(bucket, dtype=np.int64)
                        bucket.unlink()
                        data = data.reshape(-1, ncols)
                        if data.shape[0] != hi - lo:
                            raise OSError(
                                f"spill bucket {t} is short: "
                                f"{data.shape[0]} of {hi - lo} edges"
                            )
                        t_src = data[:, 0]
                        order = pair_order(t_src, data[:, 1], n_v)
                        t_src = t_src[order]
                        out_src[lo:hi] = t_src
                        out_dst[lo:hi] = data[:, 1][order]
                        if out_w is not None:
                            out_w[lo:hi] = data[:, 2][order]
                        del data, order
                    else:
                        t_src = np.empty(0, dtype=np.int64)
                    # the in-memory build's row index, bit for bit
                    uniq, edge_start = tile_row_index(t_src)
                    uniq_counts[t] = uniq.size
                    uniq.tofile(uniq_f)
                    edge_start.tofile(start_f)
                    del t_src, uniq, edge_start
            for mapped in (out_src, out_dst, out_w):
                if mapped is not None:
                    mapped.flush()
            del out_src, out_dst, out_w
        total_uniq = int(uniq_counts.sum())
        _raw_to_npy(uniq_raw, tmp / "src_unique.npy", total_uniq)
        _raw_to_npy(
            start_raw, tmp / "src_edge_start.npy", total_uniq + num_tiles
        )
        uniq_boundaries = np.zeros(num_tiles + 1, dtype=np.int64)
        np.cumsum(uniq_counts, out=uniq_boundaries[1:])
        np.save(tmp / "boundaries.npy", boundaries)
        np.save(tmp / "uniq_boundaries.npy", uniq_boundaries)
        arrays = {
            "src": num_edges,
            "dst": num_edges,
            "boundaries": num_tiles + 1,
            "src_unique": total_uniq,
            "uniq_boundaries": num_tiles + 1,
            "src_edge_start": total_uniq + num_tiles,
        }
        if with_weights:
            arrays["weight"] = num_edges
        meta = {
            "format": TILE_STORE_FORMAT,
            "graph_name": graph.name,
            "num_vertices": graph.num_vertices,
            "num_edges": num_edges,
            "tile_width": tile_width,
            "num_tiles": num_tiles,
            "with_weights": bool(with_weights),
            "arrays": arrays,
        }
        (tmp / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
        try:
            os.replace(tmp, target)
        except OSError:
            if not store_valid(target):
                raise
            shutil.rmtree(tmp)  # lost the race to a concurrent builder
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except (OverflowError, OSError):
        return False
    return True


def _sweep_stale_partials(root: pathlib.Path, store_name: str) -> None:
    """Remove partial build/spill directories whose owning builder died
    (SIGKILL skips the exception/context cleanup paths).

    Partial names embed the builder's pid (``.<store>.tmp.<pid>`` /
    ``.<store>.spill.<pid>.<rand>``); a partial whose pid is still
    alive belongs to a concurrent builder racing us to ``os.replace``
    and must be left alone -- first-writer-wins makes either finishing
    order safe.  Unparsable names are treated as live (never deleted)."""
    import re

    for stale in root.glob(f".{store_name}.*"):
        match = re.fullmatch(
            re.escape(f".{store_name}") + r"\.(?:tmp|spill)\.(\d+)(?:\..*)?",
            stale.name,
        )
        if match and not _pid_alive(int(match.group(1))):
            shutil.rmtree(stale, ignore_errors=True)


class TileStore:
    """An attached (read-only, memmapped) tile store directory.

    Per-tile arrays are *views* into six flat memmaps; constructing a
    tile costs no I/O, and pages are read on demand as the simulation
    streams the tile, then dropped by the OS under memory pressure --
    nothing pins edge-sized arrays for the run's lifetime.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        meta = json.loads((self.directory / "meta.json").read_text())
        self.num_vertices: int = int(meta["num_vertices"])
        self.num_edges: int = int(meta["num_edges"])
        self.tile_width: int = int(meta["tile_width"])
        self.num_tiles: int = int(meta["num_tiles"])
        self.with_weights: bool = bool(meta["with_weights"])
        self._src = self._load("src")
        self._dst = self._load("dst")
        self._weight = self._load("weight") if self.with_weights else None
        self._boundaries = self._load("boundaries")
        self._src_unique = self._load("src_unique")
        self._uniq_boundaries = self._load("uniq_boundaries")
        self._src_edge_start = self._load("src_edge_start")

    def _load(self, name: str) -> np.ndarray:
        return np.load(self.directory / f"{name}.npy", mmap_mode="r")

    def mapped_bytes(self) -> int:
        """Total bytes of the mapped arrays (page-cache backed, shared
        across attachments -- the *resident* private cost is ~0)."""
        arrays = [
            self._src, self._dst, self._boundaries, self._src_unique,
            self._uniq_boundaries, self._src_edge_start,
        ]
        if self._weight is not None:
            arrays.append(self._weight)
        return sum(a.nbytes for a in arrays)

    def tile_arrays(
        self, index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None,
               np.ndarray, np.ndarray]:
        """(src, dst, weight-or-None, src_unique, src_edge_start) memmap
        views for one tile."""
        lo = int(self._boundaries[index])
        hi = int(self._boundaries[index + 1])
        ulo = int(self._uniq_boundaries[index])
        uhi = int(self._uniq_boundaries[index + 1])
        return (
            self._src[lo:hi],
            self._dst[lo:hi],
            self._weight[lo:hi] if self._weight is not None else None,
            self._src_unique[ulo:uhi],
            # per-tile prefix rows are (uniq+1) long, so tile t's segment
            # starts t entries past its uniq offset
            self._src_edge_start[ulo + index:uhi + index + 1],
        )


def build_or_attach(
    graph: "CSRGraph",
    tile_width: int,
    with_weights: bool,
    root: str | os.PathLike | None = None,
    bucket_edges: int | None = None,
) -> TileStore:
    """Attach the store for (graph, tile_width, with_weights), building
    it with the bucketed external sort if it does not exist yet.

    Concurrent callers converge: the build lands via ``os.replace``
    first-writer-wins, and a caller that loses the race attaches the
    winner's store.
    """
    if tile_width <= 0:
        raise ValueError("tile_width must be positive")
    bucket = DEFAULT_BUCKET_EDGES if bucket_edges is None else int(bucket_edges)
    if bucket < 1:
        raise ValueError("bucket_edges must be >= 1")
    root = pathlib.Path(root) if root is not None else default_root()
    root.mkdir(parents=True, exist_ok=True)
    digest = store_digest(graph, tile_width, with_weights)
    target = root / f"tiles-{digest}"
    if not store_valid(target):
        if target.exists():
            # invalid remnant (truncated arrays, foreign junk): treat as
            # absent, exactly like a missing checkpoint record
            shutil.rmtree(target, ignore_errors=True)
        _sweep_stale_partials(root, target.name)
        _external_sort_build(graph, tile_width, with_weights, target, bucket)
    return TileStore(target)
