"""Out-of-core smoke: a disk-backed mid-profile figure cell under budget.

The tier-1 grid runs disk-backed tiles only on toy-sized graphs; this
smoke builds a *mid*-profile tile store with the two-pass streaming
build (a count pass and a write pass over the CSR in
``units.CHUNK_ACCESSES``-edge slices, memmapped ``.npy`` tiles) and runs
a Fig. 10 cell against it, so a regression that only bites at scale --
a pass gone quadratic, an attach that silently rebuilds, a memmap view
materialising -- is caught in CI without paying paper-scale cost.  The
result must be bit-identical to the in-memory build (the tilestore
differential suite pins the tile arrays; this pins the end-to-end
simulation outputs at mid scale).  The same cell's store build must
also keep its NumPy heap O(chunk + tiles): a build that holds a whole
tile or an edge-sized array again fails here.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_ooc_smoke.py -q
"""

import dataclasses
import time
import tracemalloc

from repro.accel.systems import make_system
from repro.experiments.config import get_profile
from repro.experiments.runner import (
    CellSpec,
    clear_result_cache,
    resolve_cell,
    run_system,
)
from repro.graph.datasets import load_dataset
from repro.graph.partition import TiledCSR
from repro.utils import units

#: generous CI budget; the disk-backed cell takes ~15 s on the
#: reference container (see the ``ooc/mid`` trajectory cells in
#: BENCH_hotpath.json)
BUDGET_SECONDS = 300.0


def test_mid_profile_disk_backed_cell_under_budget(tmp_path, capsys):
    mid = get_profile("mid")
    disk = dataclasses.replace(
        mid, tile_backing="disk", tile_store_root=str(tmp_path)
    )
    clear_result_cache()
    start = time.perf_counter()
    disk_result = run_system("Piccolo", "PR", "UU", scale=disk)
    elapsed = time.perf_counter() - start
    # the disk store was actually built where we pointed it
    assert list(tmp_path.glob("tiles-*"))
    # backings share cell digests by design, so the memo must be
    # dropped to force a real in-memory comparison run
    clear_result_cache()
    mem_result = run_system("Piccolo", "PR", "UU", scale=mid)
    with capsys.disabled():
        print(f"\nooc smoke: disk-backed Fig. 10 PR/UU mid cell in "
              f"{elapsed:.1f}s (budget {BUDGET_SECONDS:.0f}s)")
    clear_result_cache()
    assert elapsed < BUDGET_SECONDS, (
        f"disk-backed mid cell took {elapsed:.1f}s "
        f"(budget {BUDGET_SECONDS}s)"
    )
    assert disk_result.to_record() == mem_result.to_record()


def test_mid_store_build_heap_is_o_chunk(tmp_path):
    cell = resolve_cell(CellSpec("Piccolo", "PR", "UU", scale="mid"))
    graph = load_dataset(cell.dataset, cell.shift)
    width = make_system(cell.system, **cell.make_kwargs).choose_tile_width(
        graph
    )
    tracemalloc.start()
    try:
        # PR reads no edge weights, so its cells' stores carry none
        tiling = TiledCSR(
            graph, width, with_weights=False, backing="disk",
            store_root=tmp_path,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 128 * units.CHUNK_ACCESSES + 32 * len(tiling)
    assert graph.indices.nbytes > 2 * bound  # one edge array exceeds it
    assert peak < bound, (
        f"store build heap peak {peak / 2**20:.1f} MB exceeds "
        f"O(chunk + tiles) bound {bound / 2**20:.1f} MB"
    )
