"""Disk-backed tile store: a two-pass streaming build into memmapped tiles.

The in-memory :class:`~repro.graph.partition.TiledCSR` build performs a
global stable argsort of a packed (tile, src, dst) key, which
materialises ~2 extra edge-sized temporaries and then keeps every
tile's sorted copies resident for the whole run -- the RSS ceiling of
paper-profile sweeps.  This module builds the same arrays on disk with
transient memory O(chunk + tiles), not O(edges), and sorts no tile.

CSR rows list their destinations in ascending order, so the tiling's
(tile, src, dst) order is CSR order grouped stably by the tile id
``dst // tile_width``, and within a tile each source's edges form one
*run*.  Both passes walk the CSR in ``units.CHUNK_ACCESSES``-edge slices
and never hold more than one slice:

1. **Count pass.**  Each tile's edge count and run count.  A run starts
   at a row start or where the tile id changes; a slice also reads the
   edge before its cut, so runs carry across cuts.  A row whose
   destinations decrease raises ``ValueError``: grouping it would not
   give the sorted tiling.  The prefix sums are each tile's offsets
   into the edge arrays and into its ``src_unique`` / ``src_edge_start``
   row index.
2. **Write pass.**  Each slice is grouped stably by tile id (an argsort
   of the id narrowed to the smallest type that holds it, radix-sorted
   up to 65,536 tiles) and written at per-tile cursors straight into
   the memmapped src/dst/weight arrays.  Each run start writes its
   source into ``src_unique`` and its in-tile offset into
   ``src_edge_start``; each tile's closing edge count ends its row.

The result equals the in-memory build bit for bit (the differential
suite in ``tests/test_tilestore.py``).

The finished store is a directory of plain ``.npy`` arrays plus a
``meta.json`` manifest, committed with the same tmp-dir + ``os.replace``
first-writer-wins discipline as :func:`repro.graph.graphio.to_memmap`:
a killed build can never leave a store that attaches, and concurrent
builders (parallel sweep workers) converge on one copy.  Stores are
keyed by a canonical content digest over (graph arrays, tile width,
with_weights), so repeat runs and pool workers *attach* an existing
store instead of rebuilding -- the tile analogue of the shared
memmapped CSR graphs.

Hygiene: the write pass fills a private ``.<store>.tmp.<pid>``
directory that is removed on any exception, and ``build_or_attach``
sweeps stale partial build directories left behind by a SIGKILLed
predecessor before starting, matching the checkpoint-store "atomic or
missing" discipline.  A manifest whose arrays are missing or *short*
(truncated by a crash or disk-full) reads as absent and the store is
rebuilt.
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

from repro.utils import units
from repro.utils.sorting import run_starts

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

#: format marker written into a tile store's meta.json
TILE_STORE_FORMAT = 1

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


def _edge_slice(
    graph: "CSRGraph", lo: int, hi: int, tile_width: int, key_type: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR edges [lo, hi), ``lo < hi``, as ``(src, dst, tile, run_start)``.

    ``tile`` is ``dst // tile_width`` in ``key_type``; ``run_start``
    marks the first edge of each (source, tile) run: a row start, or an
    edge whose tile differs from the previous edge's.  Edge ``lo - 1``
    is read too, so runs carry across slice cuts.

    Raises:
        ValueError: a row's destinations decrease.
    """
    base = max(lo - 1, 0)
    src = _edge_sources(graph.indptr, base, hi)
    dst = np.asarray(graph.indices[base:hi])
    tile = (dst // tile_width).astype(key_type)
    same_row = src[1:] == src[:-1]
    falls = same_row & (dst[1:] < dst[:-1])
    if falls.any():
        row = int(src[1:][falls][0])
        raise ValueError(
            f"the disk tile store needs each CSR row's destinations "
            f"sorted ascending; row {row} of {graph.name!r} decreases"
        )
    skip = lo - base
    run_start = np.ones(hi - lo, dtype=bool)
    run_start[1 - skip:] = ~same_row | (tile[1:] != tile[:-1])
    return src[skip:], dst[skip:], tile[skip:], run_start


def _prefix(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: offsets of consecutive segments."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _claim(cursor: np.ndarray, grouped: np.ndarray) -> np.ndarray:
    """Output slots for items whose tile ids ``grouped`` are in tile
    order: each tile's items take consecutive slots from
    ``cursor[tile]`` on, and the cursor advances past them."""
    first = run_starts(grouped)
    size = np.diff(first, append=grouped.size)
    tiles = grouped[first]
    slots = np.repeat(cursor[tiles] - first, size)
    slots += np.arange(grouped.size)
    cursor[tiles] += size
    return slots


def _build_store(
    graph: "CSRGraph",
    tile_width: int,
    with_weights: bool,
    target: pathlib.Path,
) -> None:
    """Build a complete store at ``target`` (which must not exist)."""
    chunk = units.CHUNK_ACCESSES
    num_edges = int(graph.num_edges)
    num_tiles = units.ceil_div(graph.num_vertices, tile_width)
    # the narrowest type that holds every tile id: NumPy sorts keys of
    # 16 bits or fewer stably by radix, and a stable sort's permutation
    # depends only on the key values
    key_type = np.min_scalar_type(max(num_tiles - 1, 0))

    # -- pass 1: count each tile's edges and (source, tile) runs
    edges = np.zeros(num_tiles, dtype=np.int64)
    runs = np.zeros(num_tiles, dtype=np.int64)
    for lo in range(0, num_edges, chunk):
        _, _, tile, run_start = _edge_slice(
            graph, lo, min(lo + chunk, num_edges), tile_width, key_type
        )
        edges += np.bincount(tile, minlength=num_tiles)
        runs += np.bincount(tile[run_start], minlength=num_tiles)
    boundaries = _prefix(edges)
    uniq_boundaries = _prefix(runs)
    del edges, runs
    total_uniq = int(uniq_boundaries[-1])
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

    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f".{target.name}.tmp.{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        out = {
            name: open_memmap(
                tmp / f"{name}.npy", mode="w+", dtype=np.int64,
                shape=(length,),
            )
            for name, length in arrays.items()
        }
        out["boundaries"][:] = boundaries
        out["uniq_boundaries"][:] = uniq_boundaries
        # -- pass 2: group each slice by tile, write at per-tile cursors
        edge_cursor = boundaries[:-1].copy()
        run_cursor = uniq_boundaries[:-1].copy()
        for lo in range(0, num_edges, chunk):
            hi = min(lo + chunk, num_edges)
            src, dst, tile, run_start = _edge_slice(
                graph, lo, hi, tile_width, key_type
            )
            order = np.argsort(tile, kind="stable")
            slot = np.empty(hi - lo, dtype=np.int64)
            slot[order] = _claim(edge_cursor, tile[order])
            out["src"][slot] = src
            out["dst"][slot] = dst
            if with_weights:
                out["weight"][slot] = graph.weights[lo:hi]
            first = order[run_start[order]]  # run starts, tile-grouped
            run_tile = tile[first]
            run_slot = _claim(run_cursor, run_tile)
            out["src_unique"][run_slot] = src[first]
            # each tile's row index is one entry longer than its run
            # list, so tile t's entries sit t slots past its runs'
            out["src_edge_start"][run_slot + run_tile] = (
                slot[first] - boundaries[run_tile]
            )
        del edge_cursor, run_cursor
        closing = np.arange(num_tiles, dtype=np.int64)
        closing += uniq_boundaries[1:]
        out["src_edge_start"][closing] = np.diff(boundaries)
        for mapped in out.values():
            mapped.flush()
        del out
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
    """Remove partial build directories whose owning builder died
    (SIGKILL skips the exception cleanup path).

    Partial names embed the builder's pid: ``.<store>.tmp.<pid>``, and
    ``.<store>.spill.<pid>.<rand>`` for the spill-bucket directories of
    earlier builders.  A partial whose pid is still alive belongs to a
    concurrent builder racing us to ``os.replace`` and must be left
    alone -- first-writer-wins makes either finishing order safe.
    Unparsable names are treated as live (never deleted)."""
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
) -> TileStore:
    """Attach the store for (graph, tile_width, with_weights), building
    it with the two-pass streaming build if it does not exist yet.

    Concurrent callers converge: the build lands via ``os.replace``
    first-writer-wins, and a caller that loses the race attaches the
    winner's store.

    Raises:
        ValueError: ``tile_width`` is not positive, or a CSR row's
            destinations are not sorted ascending.
    """
    if tile_width <= 0:
        raise ValueError("tile_width must be positive")
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
        _build_store(graph, tile_width, with_weights, target)
    return TileStore(target)
