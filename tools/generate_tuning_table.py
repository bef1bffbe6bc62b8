#!/usr/bin/env python3
"""Regenerate ``repro/experiments/tuning_table.py``.

Sweeps power-of-two tile-scale factors for every tiled system on every
(algorithm, dataset) cell the figures use, mirroring the paper's
exhaustive tile-width search (Sec. VII-A), and writes the winners as a
Python literal.  Each candidate is the toy-profile cell at that tile
scale (:func:`repro.experiments.runner.resolve_cell`), swept by
:func:`repro.accel.tuner.tune_tile_scale`.  Runtime is some minutes;
results are deterministic.
"""

from __future__ import annotations

import functools
import sys
import time

from repro.accel.systems import make_system
from repro.accel.tuner import tune_tile_scale
from repro.experiments.runner import CellSpec, resolve_cell
from repro.graph.datasets import load_dataset, REAL_WORLD, SYNTHETIC

OUT_PATH = "src/repro/experiments/tuning_table.py"

#: systems whose tile width is free (SPM systems require perfect tiling,
#: PIM does not tile)
TUNABLE = ("GraphDyns (Cache)", "NMP", "Piccolo")
SCALES = (1, 2, 4, 8, 16, 32)
ALGOS_REAL = ("PR", "BFS", "CC", "SSSP", "SSWP")
ALGOS_SYNTH = ("PR",)


def probe_iterations(algorithm: str) -> int:
    return 2 if algorithm == "PR" else 6


def candidate(system: str, algorithm: str, dataset: str, tile_scale: int):
    """The toy-profile cell's system at ``tile_scale``."""
    cell = resolve_cell(
        CellSpec(system, algorithm, dataset, tile_scale=tile_scale)
    )
    return make_system(system, **cell.make_kwargs)


def main() -> None:
    cells: list[tuple[str, str, str]] = []
    for dataset in REAL_WORLD:
        for algo in ALGOS_REAL:
            cells.append((algo, dataset, "real"))
    for dataset in SYNTHETIC:
        for algo in ALGOS_SYNTH:
            cells.append((algo, dataset, "synthetic"))

    table: dict[tuple[str, str, str], int] = {}
    t_start = time.time()
    for system in TUNABLE:
        for algo, dataset, _ in cells:
            best, _timings = tune_tile_scale(
                functools.partial(candidate, system, algo, dataset),
                load_dataset(dataset),
                algo,
                scales=SCALES,
                probe_iterations=probe_iterations(algo),
            )
            table[(system, algo, dataset)] = best
            print(
                f"[{time.time() - t_start:7.1f}s] {system:18s} {algo:4s} "
                f"{dataset:5s} -> x{best}",
                flush=True,
            )

    with open(OUT_PATH, "w", encoding="utf-8") as out:
        out.write('"""Generated by tools/generate_tuning_table.py -- do not edit.\n\n')
        out.write("Best tile-scale factor (multiple of the perfect tile width)\n")
        out.write("per (system, algorithm, dataset), from exhaustive search.\n")
        out.write('"""\n\n')
        out.write("TUNED_TILE_SCALES = {\n")
        for key, value in sorted(table.items()):
            out.write(f"    {key!r}: {value},\n")
        out.write("}\n")
    print(f"wrote {OUT_PATH} with {len(table)} entries")


if __name__ == "__main__":
    sys.exit(main())
