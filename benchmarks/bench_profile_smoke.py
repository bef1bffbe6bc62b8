"""Mid-profile smoke: one scaled figure cell under a wall-clock budget.

The figure grid runs at toy scale everywhere else in CI; this smoke
runs a single Fig. 10 cell (PR on UU, baseline + Piccolo) at the
``mid`` profile -- 64 KB caches, 2^6-reduced graphs, Piccolo tiles
longer than one memory-path chunk -- so a regression that only bites at
scale (an O(tile) allocation sneaking back in, a per-miss slowdown the
toy working set hides) is caught without paying paper-scale cost in CI.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_profile_smoke.py -q
"""

import time

import numpy as np

from repro.accel.systems import make_system
from repro.experiments.config import get_profile
from repro.experiments.figures import figure_10
from repro.experiments.runner import CellSpec, clear_result_cache, resolve_cell
from repro.graph.datasets import load_dataset
from repro.utils import units

#: generous CI budget; the cell takes ~25 s on the reference container
#: (see the ``scale/mid`` trajectory in BENCH_hotpath.json)
BUDGET_SECONDS = 240.0


def largest_tile_stream(system, dataset, scale):
    """Edges of the cell's busiest destination tile: the length of its
    longest Vtemp access stream in a PageRank iteration."""
    cell = resolve_cell(CellSpec(system, "PR", dataset, scale=scale))
    graph = load_dataset(dataset, cell.shift)
    width = make_system(system, **cell.make_kwargs).choose_tile_width(graph)
    return int(np.bincount(graph.indices // width).max())


def test_mid_profile_figure_cell_under_budget(capsys):
    scale = get_profile("mid")
    # mid must exercise chunking: a Piccolo tile spans several chunks
    assert largest_tile_stream("Piccolo", "UU", scale) > units.CHUNK_ACCESSES
    clear_result_cache()
    start = time.perf_counter()
    rows = figure_10(
        datasets=("UU",),
        algorithms=("PR",),
        systems=("GraphDyns (Cache)", "Piccolo"),
        scale=scale,
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\nmid-profile smoke: Fig. 10 PR/UU cell in {elapsed:.1f}s "
              f"(budget {BUDGET_SECONDS:.0f}s)")
    clear_result_cache()
    assert elapsed < BUDGET_SECONDS, (
        f"mid-profile cell took {elapsed:.1f}s (budget {BUDGET_SECONDS}s)"
    )
    cell = {r["system"]: r["speedup"] for r in rows if r["algorithm"] == "PR"}
    assert cell["GraphDyns (Cache)"] == 1.0
    assert cell["Piccolo"] > 0.0
