"""Hot-path perf smoke: the batched memory path must beat the reference.

A CI-sized companion to the perf harness's ``quick`` and ``full``
families (``tools/perf_report.py``, which records the trajectory in
``BENCH_hotpath.json``): runs the quick PR cells once on
the production memory paths and once on the per-address reference
paths (``tests/reference_paths.py``), checks both produce the same
simulation, and asserts the batched engine delivers a real speedup.
The threshold is deliberately conservative (CI machines are noisy); the
recorded trajectory is where the honest numbers live.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_hotpath.py -q
"""

import contextlib
import pathlib
import sys
import time

import pytest

from repro.accel import systems
from repro.cache.variants import FIG11_DESIGNS, FIG11_VARIANTS
from repro.experiments.runner import clear_result_cache, run_system

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from reference_paths import (  # noqa: E402
    ReferenceConventionalPath,
    ReferenceFineGrainedPath,
)

CELLS = [
    ("Piccolo", "PR", "TW", 3),
    ("GraphDyns (Cache)", "PR", "TW", 3),
]


@contextlib.contextmanager
def paths(reference: bool):
    """Systems built inside run on the reference paths when asked."""
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            patch.setattr(
                systems, "ConventionalMemoryPath", ReferenceConventionalPath
            )
            patch.setattr(
                systems, "FineGrainedMemoryPath", ReferenceFineGrainedPath
            )
        yield


def _time_cells(reference: bool) -> float:
    total = 0.0
    with paths(reference):
        for system, algorithm, dataset, iters in CELLS:
            clear_result_cache()
            start = time.perf_counter()
            run_system(system, algorithm, dataset, max_iterations=iters)
            total += time.perf_counter() - start
    return total


def test_batched_path_beats_reference(capsys):
    run_system("Piccolo", "PR", "TW", max_iterations=1)  # warm dataset cache
    reference = _time_cells(reference=True)
    batched = _time_cells(reference=False)
    with capsys.disabled():
        print(
            f"\nhotpath smoke: reference {reference:.2f}s, batched "
            f"{batched:.2f}s, speedup {reference / batched:.2f}x"
        )
    # full-grid trajectory shows ~8-17x; require a safe margin in CI
    assert batched < reference / 2.0, (
        f"batched path regressed: {batched:.2f}s vs reference {reference:.2f}s"
    )


def test_results_match_reference():
    """Both paths must produce the same simulation, not just similar."""
    clear_result_cache()
    fast = run_system("Piccolo", "PR", "TW", max_iterations=2)
    clear_result_cache()
    with paths(reference=True):
        slow = run_system("Piccolo", "PR", "TW", max_iterations=2)
    clear_result_cache()
    assert fast.total_ns == slow.total_ns
    assert fast.cache_hits == slow.cache_hits
    assert fast.cache_misses == slow.cache_misses
    assert fast.dram.read_bursts == slow.dram.read_bursts
    assert fast.dram.write_bursts == slow.dram.write_bursts
    assert fast.mshr_ops == slow.mshr_ops


# ---------------------------------------------------------------------------
# Fig. 11 design-sweep smoke: every design's engine must stay equivalent
# to the reference walk, and every variant engine faster than it (same
# substitution ``figures.figure_11`` makes: the Piccolo system with the
# design's cache swapped in).
# ---------------------------------------------------------------------------
def _run_variant(design, reference, iterations):
    # a named design has a cell digest: clear the result memo so each
    # run simulates instead of returning the other path's result
    clear_result_cache()
    try:
        with paths(reference):
            start = time.perf_counter()
            result = run_system(
                "Piccolo",
                "PR",
                "TW",
                max_iterations=iterations,
                cache_design=design,
            )
            return result, time.perf_counter() - start
    finally:
        clear_result_cache()


@pytest.mark.parametrize("design", sorted(FIG11_DESIGNS))
def test_fig11_variant_matches_reference(design):
    """Per-design equivalence guard at the whole-system level (the five
    registry variants and both Piccolo policy rows)."""
    fast, _ = _run_variant(design, reference=False, iterations=2)
    slow, _ = _run_variant(design, reference=True, iterations=2)
    assert fast.total_ns == slow.total_ns
    assert fast.cache_hits == slow.cache_hits
    assert fast.cache_misses == slow.cache_misses
    assert fast.dram.read_bursts == slow.dram.read_bursts
    assert fast.dram.write_bursts == slow.dram.write_bursts
    assert fast.mshr_ops == slow.mshr_ops


def test_fig11_variants_batched_beats_reference(capsys):
    """Summed over the design sweep, the batched engines must win."""
    run_system("Piccolo", "PR", "TW", max_iterations=1)  # warm dataset cache
    reference = batched = 0.0
    for design in FIG11_VARIANTS:
        _, dt = _run_variant(design, reference=True, iterations=3)
        reference += dt
        _, dt = _run_variant(design, reference=False, iterations=3)
        batched += dt
    with capsys.disabled():
        print(
            f"\nfig11 variant smoke: reference {reference:.2f}s, batched "
            f"{batched:.2f}s, speedup {reference / batched:.2f}x"
        )
    # full-grid trajectory shows much more; require a safe margin in CI
    assert batched < reference / 2.0, (
        f"variant batched path regressed: {batched:.2f}s vs {reference:.2f}s"
    )
