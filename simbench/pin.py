#!/usr/bin/env python3
"""Regenerate the pinned cell records the benchmark's output check uses.

From the repository root::

    PYTHONPATH=src python3 simbench/pin.py [workload ...]

Seed 0 is pinned from the figure path (``run_resolved`` over the dataset
registry, in-memory tiles), so a seed-0 benchmark run must reproduce the
figure cells bit-for-bit.  The held-out seed is pinned from the
benchmark's own seeded graphs.  Rerun only when a change is meant to
alter simulated results.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile

from repro.experiments.runner import clear_result_cache, resolve_cell, run_resolved
from workloads import (
    HELD_OUT_SEED, PIN_DIR, WORKLOADS, canonical_record, cell_label, run_cell,
)


def pin(name: str) -> None:
    workload = WORKLOADS[name]
    figure = {}
    for spec in workload.cells:
        cell = resolve_cell(dataclasses.replace(spec, tile_backing="memory"))
        figure[cell_label(cell)] = canonical_record(run_resolved(cell))
    clear_result_cache()
    graph = workload.build_graph(HELD_OUT_SEED)
    held_out = {}
    for cell in workload.resolve():
        with tempfile.TemporaryDirectory() as store:
            result, _ = run_cell(cell, graph, store)
        held_out[cell_label(cell)] = canonical_record(result)
    PIN_DIR.mkdir(exist_ok=True)
    path = PIN_DIR / f"{name}.json"
    path.write_text(json.dumps({"0": figure, str(HELD_OUT_SEED): held_out}, indent=1) + "\n")
    print(f"pinned {len(figure)} cells x 2 seeds to {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        pin(name)
