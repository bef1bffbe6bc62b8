"""Out-of-core measurement cells: tile-backing RSS/wall-clock probes.

``tools/perf_report.py ooc/mid`` (or ``ooc/paper``) runs each cell here
in a *spawned child process* and records two phases:

1. **materialize** -- generate the dataset stand-in and write it to a
   memmap directory (:func:`repro.graph.datasets.materialize_memmap`),
   then attach the memmapped copy so the anonymous generation arrays
   are dropped.  This phase is identical for both backings; its cost is
   reported (``materialize_seconds`` / ``materialize_rss_anon_mb``) but
   kept out of the cell's recorded time.
2. **run** -- the actual (system, algorithm, dataset) cell, timed, with
   the tile arrays built ``memory``- or ``disk``-backed into a fresh
   store.  This is where the two backings diverge: the in-memory build
   holds a global argsort plus fully resident tiles, the disk build
   holds one scatter chunk / one bucket at a time and pages tiles from
   the memmapped store on demand.

Peak memory is sampled as **anonymous RSS** (``RssAnon`` in
``/proc/self/status``): memmap-backed graph and tile pages are
file-backed and reclaimable by the kernel under pressure, so they are
deliberately excluded -- bounding *anonymous* memory is exactly the
out-of-core claim.  ``ru_maxrss`` (which counts file-backed pages too)
is recorded alongside for context.

Child isolation matters because RSS high-water marks never reset within
a process: timing both backings in one process would let the in-memory
build's peak mask the disk build's.  The child is a one-worker spawn
``ProcessPoolExecutor`` (the start method the sweep workers of
:mod:`repro.experiments.parallel` use) that returns its measurement;
the parent never shares allocator state with the measured run.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pathlib
import threading
import time
from concurrent.futures import ProcessPoolExecutor

from repro.experiments.config import get_profile

#: sampling interval for the RSS watcher thread.  Coarse enough to be
#: free next to a multi-second simulation, fine enough that edge-array
#: sized transients (which live for whole sort/scatter passes) cannot
#: slip between samples.
SAMPLE_SECONDS = 0.02


@dataclasses.dataclass(frozen=True)
class OocCell:
    """One spawned-child measurement: a grid cell at a fixed backing."""

    name: str
    system: str
    algorithm: str
    dataset: str
    scale: str
    tile_backing: str
    #: dataset reduction override; None takes the profile's shift.  The
    #: paper-suite KN28 cell uses shift 4 (~2^24 vertices, ~167M edges)
    #: to cross the 100M-edge line the toy/paper profiles never reach.
    scale_shift: int | None = None


#: The recorded trajectory cells.  ``mid`` is the cheap pair (also the
#: shape the tier-1 ooc smoke exercises); ``paper`` adds the 100M+-edge
#: disk-only Kronecker cell -- its in-memory counterpart is exactly the
#: configuration the disk backing exists to avoid, so it is not run.
OOC_CELLS: dict[str, list[OocCell]] = {
    "mid": [
        OocCell("ooc/mid/memory/Piccolo/PR/SW",
                "Piccolo", "PR", "SW", "mid", "memory"),
        OocCell("ooc/mid/disk/Piccolo/PR/SW",
                "Piccolo", "PR", "SW", "mid", "disk"),
    ],
    "paper": [
        OocCell("ooc/paper/memory/Piccolo/PR/SW",
                "Piccolo", "PR", "SW", "paper", "memory"),
        OocCell("ooc/paper/disk/Piccolo/PR/SW",
                "Piccolo", "PR", "SW", "paper", "disk"),
        OocCell("ooc/paper/disk/Piccolo/PR/KN28s4",
                "Piccolo", "PR", "KN28", "paper", "disk", scale_shift=4),
    ],
}


def _read_rss_kb() -> tuple[int, int]:
    """(RssAnon, VmRSS) in kB from ``/proc/self/status``.

    RssAnon needs Linux >= 4.5; where absent, anon falls back to VmRSS
    (the gate then over-counts file-backed pages -- conservative).
    """
    anon = rss = 0
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("RssAnon:"):
                    anon = int(line.split()[1])
                elif line.startswith("VmRSS:"):
                    rss = int(line.split()[1])
    except OSError:  # pragma: no cover - non-/proc platform
        pass
    return (anon or rss, rss)


class _AnonPeakSampler:
    """Background thread tracking the peak anonymous RSS since reset."""

    def __init__(self) -> None:
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._peak_kb = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        anon_kb, _ = _read_rss_kb()
        with self._lock:
            self._peak_kb = max(self._peak_kb, anon_kb)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_SECONDS):
            self._sample()

    def __enter__(self) -> "_AnonPeakSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def reset_mb(self) -> float:
        """Return the peak so far (MB) and start a fresh window."""
        self._sample()
        with self._lock:
            peak = self._peak_kb
            self._peak_kb = 0
        return round(peak / 1024, 1)


def _child_main(cell: OocCell, root: str) -> dict:
    """Measure one cell (runs inside the spawned child)."""
    import resource

    from repro.experiments.runner import clear_result_cache, run_system
    from repro.graph import datasets

    root_dir = pathlib.Path(root)
    scale = get_profile(cell.scale)
    shift = (cell.scale_shift if cell.scale_shift is not None
             else scale.scale_shift)
    # a fresh per-cell store: the point is to time the *build*, not a
    # warm attach (the attach path is what the sweep tests cover)
    tiles_dir = root_dir / cell.name.replace("/", "_") / "tiles"
    tiles_dir.mkdir(parents=True, exist_ok=True)
    scale = dataclasses.replace(
        scale,
        tile_backing=cell.tile_backing,
        tile_store_root=str(tiles_dir),
    )

    with _AnonPeakSampler() as sampler:
        mat_start = time.perf_counter()
        path = datasets.materialize_memmap(
            cell.dataset, shift, root_dir / "graphs"
        )
        datasets.attach_memmap(cell.dataset, shift, path)
        materialize_seconds = time.perf_counter() - mat_start
        materialize_peak_mb = sampler.reset_mb()

        clear_result_cache()
        run_start = time.perf_counter()
        result = run_system(
            cell.system,
            cell.algorithm,
            cell.dataset,
            scale=scale,
            scale_shift=shift,
        )
        seconds = time.perf_counter() - run_start
        run_peak_mb = sampler.reset_mb()

    return {
        "cell": cell.name,
        "tile_backing": cell.tile_backing,
        "dataset": cell.dataset,
        "scale_shift": shift,
        "num_edges": datasets.load_dataset(cell.dataset, shift).num_edges,
        "seconds": round(seconds, 4),
        "rss_anon_peak_mb": run_peak_mb,
        "materialize_seconds": round(materialize_seconds, 4),
        "materialize_rss_anon_mb": materialize_peak_mb,
        "ru_maxrss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "total_ns": result.total_ns,
    }


def run_ooc_cell(cell: OocCell, root) -> dict:
    """Run one cell in a spawned child; return its measurement payload.

    The shared ``root`` holds the materialised graph memmaps (reused
    across cells of one suite run) and each cell's private tile store.
    """
    root_dir = pathlib.Path(root)
    root_dir.mkdir(parents=True, exist_ok=True)
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn")
    ) as child:
        future = child.submit(_child_main, cell, str(root_dir))
        try:
            return future.result()
        except Exception as exc:
            raise RuntimeError(f"ooc cell {cell.name} child failed") from exc


__all__ = ["OOC_CELLS", "OocCell", "run_ooc_cell"]
