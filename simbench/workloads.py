"""The benchmark's workloads: seeded graphs, the cells each one runs, and
the output check.

Every workload is driven through the simulator's public API only: the
graph generators, ``resolve_cell`` and ``make_system(...).run``.  Cells
are run directly, never through ``run_resolved``/``run_system``, so the
in-process result memo and the dataset LRU are bypassed and every
repetition really simulates.  Each cell builds a fresh system, so the
simulated caches (and the per-path replay memo) start empty.

Seed 0 regenerates the registry graphs bit-for-bit (the same generator,
parameters and seeds as :mod:`repro.graph.datasets`), so a seed-0 run
simulates real figure cells.  Seed ``s`` shifts every generator seed by
``s * SEED_STRIDE`` and keeps all other parameters.
"""

from __future__ import annotations

import json
import pathlib
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.accel.base import SystemResult
from repro.accel.systems import SYSTEM_ORDER, make_system
from repro.experiments.runner import CellSpec, ResolvedCell, resolve_cell
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS

SEED_STRIDE = 1000
#: the seed, besides the default 0, whose records are pinned; it was
#: held out while the workloads were chosen
HELD_OUT_SEED = 1
PIN_DIR = pathlib.Path(__file__).resolve().parent / "pins"


def _vertices(dataset: str, shift: int) -> int:
    return max(1024, DATASETS[dataset].paper_vertices >> shift)


def _uu(shift: int, seed: int) -> CSRGraph:
    return gen.erdos_renyi(
        _vertices("UU", shift), avg_degree=1.6,
        seed=101 + seed * SEED_STRIDE, name="UU",
    )


def _sw(shift: int, seed: int) -> CSRGraph:
    return gen.rmat(
        _vertices("SW", shift), avg_degree=12.4,
        seed=102 + seed * SEED_STRIDE, name="SW",
    )


def _tw(shift: int, seed: int) -> CSRGraph:
    n = _vertices("TW", shift)
    return gen.community_graph(
        n, avg_degree=35.7, num_communities=max(8, n // 256),
        p_internal=0.75, seed=103 + seed * SEED_STRIDE, name="TW",
    )


#: the registry's stand-in constructions, with the seed exposed
GRAPH_BUILDERS: dict[str, Callable[[int, int], CSRGraph]] = {
    "UU": _uu,
    "SW": _sw,
    "TW": _tw,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    cells: tuple[CellSpec, ...]

    def resolve(self) -> list[ResolvedCell]:
        return [resolve_cell(spec) for spec in self.cells]

    def shift(self) -> int:
        return resolve_cell(self.cells[0]).shift

    def build_graph(self, seed: int) -> CSRGraph:
        return GRAPH_BUILDERS[self.dataset](self.shift(), seed)


def _fig10_cells() -> tuple[CellSpec, ...]:
    return tuple(
        CellSpec(system, algorithm, "TW", scale="toy",
                 max_iterations=12 if algorithm == "PR" else None)
        for system in SYSTEM_ORDER
        for algorithm in ("PR", "BFS")
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The mid profile's capacities over smaller graphs than mid's 2^6
        # reduction: a full-mid pass takes 5 to 13 s, and a run needs
        # many short passes for its median to be steady on a shared host.
        Workload(
            "bfs-sw-mid-s9",
            "Piccolo BFS on skewed RMAT, mid capacities: the replay memo never "
            "hits, so the Piccolo cache and MSHR kernels carry the run",
            "SW",
            (CellSpec("Piccolo", "BFS", "SW", scale="mid", scale_shift=9),),
        ),
        Workload(
            "fig10-tw-toy",
            "the six Fig. 10 systems x {PR, BFS} on TW at toy: replay memo, "
            "small DRAM phases and the VCM engine carry the run",
            "TW",
            _fig10_cells(),
        ),
        Workload(
            "pr-uu-mid-s8-disk",
            "GraphDyns-Cache PR on uniform UU, mid capacities, disk tile store: "
            "64 B conventional cache, streamed DRAM phase, external-sort tiles",
            "UU",
            (CellSpec("GraphDyns (Cache)", "PR", "UU", scale="mid",
                      scale_shift=8, tile_backing="disk"),),
        ),
    )
}


def cell_label(cell: ResolvedCell) -> str:
    return f"{cell.system}/{cell.algorithm}/{cell.dataset}"


def run_cell(
    cell: ResolvedCell, graph: CSRGraph, store_root: str | None
) -> tuple[SystemResult, object]:
    """Simulate one cell on a fresh system; returns (result, system).

    ``store_root`` replaces the profile's tile-store root for disk-backed
    cells, so the store is built fresh where the caller chooses.
    """
    kwargs = dict(cell.make_kwargs)
    if kwargs.get("tile_backing") == "disk":
        kwargs["tile_store_root"] = store_root
    accel = make_system(cell.system, **kwargs)
    result = accel.run(graph, cell.algorithm, max_iterations=cell.max_iterations)
    return result, accel


def canonical_record(result: SystemResult) -> dict:
    """The record as it reads back from JSON (the form pins are kept in)."""
    return json.loads(json.dumps(result.to_record()))


# -- output check -------------------------------------------------------------
def load_pins(workload: str) -> dict[int, dict[str, dict]]:
    """Pinned records by seed, then cell label."""
    path = PIN_DIR / f"{workload}.json"
    return {int(seed): cells for seed, cells in json.loads(path.read_text()).items()}


def bfs_reference(graph: CSRGraph, source: int = 0) -> tuple[int, int]:
    """(edges a level-synchronous BFS from ``source`` visits, its depth).

    Every reached vertex is in the frontier exactly once, so the VCM BFS
    processes exactly its out-edges once, over ``depth + 1`` iterations.
    """
    indptr, indices = graph.indptr, graph.indices
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    edges, depth = 0, 0
    while True:
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        total = int(lengths.sum())
        edges += total
        # position of each frontier edge in ``indices``: its vertex's
        # start plus its rank within that vertex's run
        offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        neighbours = indices[offsets + np.arange(total)]
        fresh = np.unique(neighbours[~seen[neighbours]])
        if fresh.size == 0:
            return edges, depth
        seen[fresh] = True
        frontier = fresh
        depth += 1


def reference_errors(
    cell: ResolvedCell, graph: CSRGraph, record: dict, bfs: tuple[int, int] | None
) -> list[str]:
    """Seed-independent checks of one cell's record against the graph."""
    errors = []
    iters, edges = record["iterations"], record["edges_processed"]
    if not record["total_ns"] > 0:
        errors.append("total_ns is not positive")
    if record["cache_hits"] + record["cache_misses"] != record["cache_accesses"]:
        errors.append("cache hits + misses != accesses")
    if cell.algorithm == "PR":
        if not 1 <= iters <= cell.max_iterations:
            errors.append(f"PR ran {iters} iterations")
        if edges != iters * graph.num_edges:
            errors.append(f"PR processed {edges} edges, not {iters} x |E|")
        if record["vertex_applies"] != iters * graph.num_vertices:
            errors.append("PR did not apply every vertex once per iteration")
    elif cell.algorithm == "BFS" and bfs is not None:
        ref_edges, depth = bfs
        if depth + 1 <= cell.max_iterations and (edges, iters) != (ref_edges, depth + 1):
            errors.append(
                f"BFS processed {edges} edges in {iters} iterations; the "
                f"reference visits {ref_edges} in {depth + 1}"
            )
    return errors


class OutputCheck:
    """Counts cell runs attempted and failed against their expected records.

    At a pinned seed a record must equal its pin.  At any other seed it
    must equal the cell's first-pass record, which must in turn pass
    :func:`reference_errors`.
    """

    def __init__(
        self, workload: str, cells: list[ResolvedCell], graph: CSRGraph, seed: int
    ) -> None:
        self.graph = graph
        self.pinned = load_pins(workload).get(seed)
        self.bfs = (
            bfs_reference(graph)
            if any(cell.algorithm == "BFS" for cell in cells) else None
        )
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, cell: ResolvedCell, outcome: SystemResult | Exception) -> None:
        self.attempted += 1
        label = cell_label(cell)
        if isinstance(outcome, Exception):
            self._fail(label, ["".join(traceback.format_exception(outcome))])
            return
        record = canonical_record(outcome)
        errors = []
        if label not in self.first:
            self.first[label] = record
            errors += reference_errors(cell, self.graph, record, self.bfs)
        if self.pinned is not None and record != self.pinned.get(label):
            errors.append("record differs from the pinned record")
        elif record != self.first[label]:
            errors.append("record differs from the first pass")
        if errors:
            self._fail(label, errors)

    def _fail(self, label: str, errors: list[str]) -> None:
        self.failed += 1
        for error in errors:
            print(f"FAILED {label}: {error}", file=sys.stderr)
