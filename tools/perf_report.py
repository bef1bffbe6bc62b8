#!/usr/bin/env python
"""Wall-clock regression harness: one registry of measured cell families.

Every speed claim in this repo is a trajectory point in
``BENCH_hotpath.json`` at the repo root, recorded or gated by this
script.  A *family* is a named set of cells, the one function that
measures them, and the gate CI holds them to.  Pick one by name (the
prefix of its cell names; ``full`` holds the ``fig10/`` and ``fig11/``
cells)::

    PYTHONPATH=src python tools/perf_report.py              # full grid
    PYTHONPATH=src python tools/perf_report.py quick --no-write
    PYTHONPATH=src python tools/perf_report.py engine-xval/mid --check

=====================  ==============================  ========================
family                 cells; how each is measured     gate (``--check``)
=====================  ==============================  ========================
``full``               Fig. 10 / Fig. 11 toy cells,    1.3x
                       BFS and PR x12; best of N
``quick``              two toy PR x3 cells; best of N  1.3x
``scale/mid``          mid-profile PR; best of N       1.3x
``scale/paper``        paper-profile PR; best of N     900 s, 1024 MB, no ratio
``engine-xval/toy``    DRAM engine cross-validation    1.3x
``engine-xval/mid``    workloads; best of N, plus      1.5x, 60 s
``engine-xval/paper``  the engine/analytic ratio       1.5x, 300 s
``ooc/mid``            memory- vs disk-backed tile     1.3x
``ooc/paper``          builds, one spawned child       1.5x, 2400 s, 4096 MB
                       each, single shot
``service``            service cache-hit latency       4.0x
                       over localhost; best of N x 30
``parallel``           mid Fig. 10 PR sweep at 1, 2,   1.3x
                       4, 8 workers; best of N
=====================  ==============================  ========================

Grid families (``full``, ``quick``, ``scale/*``) run their cells
through :func:`repro.experiments.parallel.run_cells`: in process, best
of ``--repeats``, with every graph loaded before timing starts, or
sharded single-shot across ``--workers`` processes.  ``--resume-from
DIR`` loads cells already checkpointed under ``DIR`` instead of
re-running them; loaded cells are kept out of the recorded times, so a
trajectory point only ever contains real measurements.

Every point carries ``label`` (default: the family name), ``mode``
(``"batched"``), ``timestamp``, ``family``, ``times`` and
``peak_rss_mb``: the high-water mark of this process or of any child
or worker that ran a cell.  Where the family produces them, points also
carry ``cell_rss_mb`` (per-cell peak of the process that ran it; peak
*anonymous* RSS for the ``ooc`` children) and ``details`` (the xval
ratio, the ooc payload, the service latency spread, worker RSS).
Speedups are reported against each cell's *earliest* baseline point:
the pristine seed checkout (``seed``), or a scalar point recorded while
the seed's per-address loop was still a runtime mode.  That loop now
lives only in ``tests/reference_paths.py``, so no new baseline can be
recorded; a cell without one reports no speedup.

``--check`` runs the family's gate instead of recording: each cell must
stay within the gate's ratio of its most recent batched point (a cell
with no recorded point is ``no-baseline`` and does not fail), the summed
cell times within ``max_seconds`` and ``peak_rss_mb`` within
``max_rss_mb``.  A local ``--check`` runs exactly the gate CI runs.
The verdict goes to ``--report-out`` (default ``perf_check_report.json``
next to the trajectory) and the exit status is 1 on failure.
``--only PREFIXES`` restricts a family to cells whose name starts with
one of the comma-separated prefixes (e.g. ``--only fig11/``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import pathlib
import resource
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_hotpath.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cache.variants import FIG11_VARIANTS  # noqa: E402
from repro.dram.engine.xval import (  # noqa: E402
    ENGINE_XVAL_WORKLOADS,
    run_engine_xval_cell,
)
from repro.experiments import parallel  # noqa: E402
from repro.experiments.ooc import OOC_CELLS, run_ooc_cell  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    CellSpec,
    clear_result_cache,
    resolve_cell,
)
from repro.graph.datasets import load_dataset  # noqa: E402


@dataclass(frozen=True)
class Cell:
    """One trajectory cell: its recorded identity plus what to run."""

    name: str
    row: str
    algorithm: str
    dataset: str
    max_iterations: int | None
    #: the family's measure input: a ``CellSpec`` (grid), an
    #: (engine-xval profile, workload) pair, an ``OocCell``, the service
    #: request config, or the sweep's worker count
    run: object


@dataclass
class Measured:
    """What a family's measure function returns."""

    #: best measured seconds per cell (checkpoint-loaded cells absent)
    times: dict = field(default_factory=dict)
    #: per-cell peak RSS (MB) of the process or child that ran it
    cell_rss_mb: dict = field(default_factory=dict)
    #: per-cell payload recorded alongside the time
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Family:
    """A named cell set, its measure function and its CI gate."""

    cells: list[Cell]
    measure: Callable[[list[Cell], argparse.Namespace], Measured]
    #: max slowdown per cell vs its latest batched point; None: no check
    ratio: float | None = 1.3
    #: budget on the summed cell times (s)
    max_seconds: float | None = None
    #: budget on the point's ``peak_rss_mb``
    max_rss_mb: float | None = None


# ---------------------------------------------------------------------------
# Measure functions
# ---------------------------------------------------------------------------
def measure_grid(cells, args) -> Measured:
    """Grid cells through ``parallel.run_cells``: in process best of
    ``--repeats``, or one sharded pass (``--workers``/``--resume-from``)
    timed by the workers."""
    specs = [cell.run for cell in cells]
    # graph generation is the dataset's cost, not the cell's
    for spec in specs:
        resolved = resolve_cell(spec)
        load_dataset(resolved.dataset, resolved.shift)
    sharded = args.workers is not None or args.resume_from is not None
    measured = Measured()
    for _ in range(1 if sharded else args.repeats):
        clear_result_cache()
        outcomes = parallel.run_cells(
            specs,
            workers=args.workers,
            resume=args.resume_from is not None,
            checkpoint_dir=args.resume_from,
        )
        for cell, outcome in zip(cells, outcomes):
            if outcome.source == "checkpoint":
                continue
            measured.times[cell.name] = min(
                measured.times.get(cell.name, math.inf),
                round(outcome.seconds, 4),
            )
            measured.cell_rss_mb[cell.name] = round(outcome.rss_mb, 1)
    for cell in cells:
        seconds = measured.times.get(cell.name)
        print(f"  {cell.name:38s} "
              + ("(from checkpoint)" if seconds is None
                 else f"{seconds:8.3f} s"), flush=True)
    return measured


def measure_engine_xval(cells, args) -> Measured:
    """Best-of-``--repeats`` engine wall seconds per workload, plus the
    engine/analytic duration ratio (the cross-validation payload)."""
    measured = Measured()
    for cell in cells:
        runs = [run_engine_xval_cell(*cell.run) for _ in range(args.repeats)]
        measured.times[cell.name] = round(min(r["seconds"] for r in runs), 4)
        ratio = round(runs[-1]["ratio"], 4)
        measured.details[cell.name] = {"xval_ratio": ratio}
        print(f"  {cell.name:38s} {measured.times[cell.name]:8.3f} s  "
              f"(xval ratio {ratio:.3f})", flush=True)
    return measured


def measure_ooc(cells, args) -> Measured:
    """One spawned child per cell, single shot: RSS high-water marks
    never reset within a process.  The child's peak *anonymous* RSS is
    the cell's RSS (file-backed memmap pages are reclaimable)."""
    measured = Measured()
    with tempfile.TemporaryDirectory(prefix="repro-ooc-") as root:
        for cell in cells:
            payload = run_ooc_cell(cell.run, root)
            measured.times[cell.name] = payload["seconds"]
            measured.cell_rss_mb[cell.name] = payload["rss_anon_peak_mb"]
            measured.details[cell.name] = payload
            print(f"  {cell.name:38s} {payload['seconds']:8.3f} s  "
                  f"anon peak {payload['rss_anon_peak_mb']:8.1f} MB  "
                  f"(+{payload['materialize_seconds']:.1f}s materialize)",
                  flush=True)
    return measured


#: identical POSTs timed per --repeats unit (best-of is recorded)
SERVICE_REQUESTS_PER_REPEAT = 30


def measure_service(cells, args) -> Measured:
    """Best cache-hit latency of a repeated identical ``POST
    /experiments`` against an in-process stdlib server on an ephemeral
    localhost port: request parse, digest canonicalization, cache
    lookup and the full ``SystemResult`` record over the wire.  One
    miss is simulated first to warm the content-addressed store."""
    from repro.service import ExperimentService, make_server

    (cell,) = cells
    body = json.dumps(cell.run)
    headers = {"Content-Type": "application/json"}
    with tempfile.TemporaryDirectory(prefix="repro-service-") as root:
        service = ExperimentService(root)
        server = make_server(service)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = http.client.HTTPConnection(host, port, timeout=60)

            def post():
                conn.request("POST", "/experiments", body=body,
                             headers=headers)
                response = conn.getresponse()
                return response.status, json.loads(response.read())

            _status, state = post()
            digest = state["digest"]
            deadline = time.monotonic() + 300
            while state.get("status") not in ("done", "failed"):
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"service miss did not finish in time: {state}"
                    )
                time.sleep(0.05)
                conn.request("GET", f"/experiments/{digest}")
                state = json.loads(conn.getresponse().read())
            if state["status"] != "done":
                raise RuntimeError(f"service warm-up run failed: {state}")
            samples = []
            for _ in range(args.repeats * SERVICE_REQUESTS_PER_REPEAT):
                start = time.perf_counter()
                status, payload = post()
                elapsed = time.perf_counter() - start
                if status != 200 or not payload.get("cached"):
                    raise RuntimeError(
                        f"expected a cache hit, got {status}: {payload}"
                    )
                samples.append(elapsed)
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
    samples.sort()
    detail = {
        "requests": len(samples),
        "best_s": round(samples[0], 6),
        "median_s": round(samples[len(samples) // 2], 6),
        "p90_s": round(samples[int(len(samples) * 0.9)], 6),
        "miss_run_seconds": state.get("seconds"),
        "config": dict(cell.run),
    }
    print(f"  {cell.name:38s} {samples[0]:8.6f} s  (median "
          f"{detail['median_s']:.6f} s over {len(samples)} hits; miss ran "
          f"{detail['miss_run_seconds']} s)", flush=True)
    return Measured(times={cell.name: detail["best_s"]},
                    details={cell.name: detail})


#: the fixed worker-scaling sweep: the mid-profile Fig. 10 PR grid over
#: the two fastest real-world datasets
PARALLEL_SWEEP = [
    CellSpec(system=system, algorithm="PR", dataset=dataset, scale="mid")
    for system in ("GraphDyns (Cache)", "Piccolo", "NMP")
    for dataset in ("UU", "SW")
]


def measure_parallel(cells, args) -> Measured:
    """End-to-end wall-clock of the fixed sweep at each cell's worker
    count, best of ``--repeats``."""
    measured = Measured()
    with tempfile.TemporaryDirectory(prefix="repro-graphs-") as graph_dir:
        for cell in cells:
            best = math.inf
            for _ in range(args.repeats):
                clear_result_cache()
                start = time.perf_counter()
                outcomes = parallel.run_cells(
                    PARALLEL_SWEEP, workers=cell.run, graph_dir=graph_dir
                )
                best = min(best, time.perf_counter() - start)
            measured.times[cell.name] = round(best, 4)
            measured.cell_rss_mb[cell.name] = round(
                max(o.rss_mb for o in outcomes), 1
            )
            measured.details[cell.name] = parallel.sweep_rss_mb(outcomes)
            print(f"  {cell.name:38s} {best:8.3f} s  (max worker RSS "
                  f"{measured.details[cell.name]['max_worker_rss_mb']} MB)",
                  flush=True)
    return measured


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------
def _grid(name, row, algorithm, dataset, iters, scale="toy", *,
          system=None, cache_design=None):
    return Cell(name, row, algorithm, dataset, iters, CellSpec(
        system=system or row, algorithm=algorithm, dataset=dataset,
        scale=scale, max_iterations=iters, cache_design=cache_design,
    ))


def _scale_cells(profile, rows):
    # iteration caps come from the profile itself (PR x3)
    return [
        _grid(f"scale/{profile}/{tag}/PR/{dataset}", row, "PR", dataset,
              None, profile)
        for tag, row, dataset in rows
    ]


def _xval_cells(profile):
    return [
        Cell(f"engine-xval/{profile}/{workload}", "dram-engine", workload,
             profile, None, (profile, workload))
        for workload in ENGINE_XVAL_WORKLOADS
    ]


def _ooc_cells(profile):
    return [
        Cell(c.name, c.system, c.algorithm,
             c.dataset if c.scale_shift is None
             else f"{c.dataset}@s{c.scale_shift}", None, c)
        for c in OOC_CELLS[profile]
    ]


_FIG10_SYSTEMS = (
    ("Piccolo", "Piccolo"), ("GraphDyns-Cache", "GraphDyns (Cache)"),
    ("NMP", "NMP"),
)
_FIG11_DESIGNS = (
    ("Piccolo-RRIP", "Piccolo (RRIP)"),
    *((design, design) for design in FIG11_VARIANTS),
)

#: The PR cells run 12 identical power iterations (the figure harness
#: caps PR at 3 for wall-clock; the paper runs up to 40, so a deeper run
#: is the representative cost).  Iteration 2 runs live only until a
#: phase starts in the state the same phase of iteration 1 did, and the
#: fast-forward charges its rest and iterations 3-12 from the
#: recordings.  The quick cells run 3, so their distinct names keep
#: them from ever being compared against the full-grid points.
FAMILIES: dict[str, Family] = {
    "full": Family(
        [_grid(f"fig10/{tag}/{alg}/TW", row, alg, "TW", iters)
         for tag, row in _FIG10_SYSTEMS
         for alg, iters in (("BFS", 40), ("PR", 12))]
        + [_grid(f"fig11/{tag}/PR/TW", design, "PR", "TW", 12,
                 system="Piccolo", cache_design=design)
           for tag, design in _FIG11_DESIGNS],
        measure_grid,
    ),
    "quick": Family(
        [_grid(f"quick/{tag}/PR3/TW", row, "PR", "TW", 3)
         for tag, row in _FIG10_SYSTEMS[:2]],
        measure_grid,
    ),
    "scale/mid": Family(
        _scale_cells("mid", (
            ("Piccolo", "Piccolo", "SW"),
            ("GraphDyns-Cache", "GraphDyns (Cache)", "SW"),
            ("Piccolo", "Piccolo", "UU"),
        )),
        measure_grid,
    ),
    # the nightly watchdog: 15 min of simulation and 1 GB peak RSS keep
    # the paper-profile cells runnable between PRs; no per-cell ratio
    "scale/paper": Family(
        _scale_cells("paper", (
            ("Piccolo", "Piccolo", "SW"), ("Piccolo", "Piccolo", "UU"),
        )),
        measure_grid, ratio=None, max_seconds=900, max_rss_mb=1024,
    ),
    "engine-xval/toy": Family(_xval_cells("toy"), measure_engine_xval),
    "engine-xval/mid": Family(
        _xval_cells("mid"), measure_engine_xval, ratio=1.5, max_seconds=60,
    ),
    "engine-xval/paper": Family(
        _xval_cells("paper"), measure_engine_xval, ratio=1.5,
        max_seconds=300,
    ),
    "ooc/mid": Family(_ooc_cells("mid"), measure_ooc),
    # budgets ~1.3-1.5x above the recorded point (cells sum 1657 s,
    # worst-cell anon peak 3229 MB on the 1-CPU reference container),
    # including the 165.6M-edge KN28 cell
    "ooc/paper": Family(
        _ooc_cells("paper"), measure_ooc, ratio=1.5, max_seconds=2400,
        max_rss_mb=4096,
    ),
    # sub-millisecond localhost HTTP jitters far more than seconds-long
    # simulation cells on shared runners, hence the wider ratio
    "service": Family(
        [Cell("service/hit-latency/toy-pr3", "service", "PR", "TW", 3, {
            "system": "Piccolo", "algorithm": "PR", "dataset": "TW",
            "profile": "toy", "max_iterations": 3,
        })],
        measure_service, ratio=4.0,
    ),
    "parallel": Family(
        [Cell(f"parallel/mid-fig10pr/w{workers}", "parallel-sweep", "PR",
              "UU+SW", None, workers) for workers in (1, 2, 4, 8)],
        measure_parallel,
    ),
}


# ---------------------------------------------------------------------------
# Trajectory: baselines, references and the regression check
# ---------------------------------------------------------------------------
def row_totals(cells, times):
    rows: dict[str, float] = {}
    for cell in cells:
        if cell.name in times:
            rows[cell.row] = rows.get(cell.row, 0.0) + times[cell.name]
    return rows


def load_trajectory(path):
    if path.exists():
        return json.loads(path.read_text())
    return {"workloads": {}, "trajectory": []}


#: trajectory modes that qualify as a speedup baseline: the pristine
#: seed checkout, or the seed's per-address loop re-timed later while
#: it was still a runtime mode (how cells added after the seed point
#: got a baseline)
BASELINE_MODES = ("seed-checkout", "scalar")


def baseline_times(report):
    """Per-cell baseline: the earliest scalar-mode point timing the cell."""
    times: dict[str, float] = {}
    labels: dict[str, str] = {}
    for point in report["trajectory"]:
        if point.get("mode") not in BASELINE_MODES:
            continue
        for name, seconds in point["times"].items():
            if name not in times:
                times[name] = seconds
                labels[name] = point["label"]
    return times, labels


def reference_times(report):
    """Per-cell regression reference: the *latest* batched-mode point
    that timed the cell (the trajectory the ``--check`` gate defends)."""
    times: dict[str, float] = {}
    labels: dict[str, str] = {}
    for point in report["trajectory"]:
        if point.get("mode") != "batched":
            continue
        for name, seconds in point["times"].items():
            times[name] = seconds
            labels[name] = point["label"]
    return times, labels


def check_regressions(report, times, ratio):
    """Compare measured ``times`` against the recorded trajectory.

    Returns (cell verdict list, ok).  A cell fails when measured time
    exceeds ``ratio`` x its reference; cells without a recorded batched
    reference are 'no-baseline' and do not fail the gate.
    """
    refs, labels = reference_times(report)
    cells = []
    ok = True
    for name, measured in sorted(times.items()):
        ref = refs.get(name)
        if ref is None or ref <= 0:
            cells.append(
                {"cell": name, "measured_s": measured, "status": "no-baseline"}
            )
            continue
        slowdown = measured / ref
        status = "ok" if slowdown <= ratio else "fail"
        if status == "fail":
            ok = False
        cells.append(
            {
                "cell": name,
                "measured_s": measured,
                "reference_s": ref,
                "reference_label": labels[name],
                "slowdown": round(slowdown, 3),
                "status": status,
            }
        )
    return cells, ok


def run_gate(name, family, report, point, report_out) -> int:
    """Hold ``point`` to the family's gate; write the verdict JSON."""
    total = round(sum(point["times"].values()), 3)
    verdict = {
        "family": name,
        "timestamp": point["timestamp"],
        "times": point["times"],
        "total_best_seconds": total,
        "peak_rss_mb": point["peak_rss_mb"],
        "gate": {"ratio": family.ratio, "max_seconds": family.max_seconds,
                 "max_rss_mb": family.max_rss_mb},
        "ok": True,
        "failures": [],
    }
    if family.ratio is not None:
        cells, cells_ok = check_regressions(
            report, point["times"], family.ratio
        )
        verdict["cells"] = cells
        if not cells_ok:
            verdict["ok"] = False
            verdict["failures"].append("cell-regression")
        print(f"\nperf-regression gate (<= {family.ratio}x per cell):")
        for cell in cells:
            slow = cell.get("slowdown")
            print(
                f"  {cell['cell']:38s} {cell['measured_s']:8.3f} s  "
                + (
                    f"{slow:5.2f}x vs {cell['reference_label']:24s} "
                    f"[{cell['status']}]"
                    if slow is not None
                    else "[no-baseline]"
                )
            )
    if family.max_seconds is not None and total > family.max_seconds:
        verdict["ok"] = False
        verdict["failures"].append(
            f"wall-clock {total}s > budget {family.max_seconds}s"
        )
    peak = point["peak_rss_mb"]
    if family.max_rss_mb is not None and peak > family.max_rss_mb:
        verdict["ok"] = False
        verdict["failures"].append(
            f"peak RSS {peak} MB > budget {family.max_rss_mb} MB"
        )
    report_out.write_text(json.dumps(verdict, indent=1) + "\n")
    print(
        f"gate verdict: {'OK' if verdict['ok'] else 'FAIL'} "
        f"(total {total}s, peak RSS {peak} MB) -> {report_out}"
    )
    for failure in verdict["failures"]:
        print(f"  FAIL: {failure}")
    return 0 if verdict["ok"] else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def parse_args(argv=None) -> tuple[argparse.Namespace, list[Cell]]:
    """Parse and validate a command line; returns it with the selected
    cells (exits on a usage error)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", nargs="?", default="full",
                        choices=list(FAMILIES),
                        help="cell family to measure (default: full)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timings (ooc cells and sharded "
                        "runs are single-shot)")
    parser.add_argument("--label", default=None,
                        help="trajectory point label (default: the "
                        "family name)")
    parser.add_argument("--json", type=pathlib.Path, default=DEFAULT_JSON,
                        help="trajectory file (default: BENCH_hotpath.json)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and print only")
    parser.add_argument("--only", default=None, metavar="PREFIXES",
                        help="restrict to cells whose name starts with "
                        "one of the comma-separated prefixes")
    parser.add_argument("--check", action="store_true",
                        help="run the family's gate against the recorded "
                        "trajectory instead of recording (exit 1 on "
                        "failure)")
    parser.add_argument("--report-out", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="where --check writes its verdict JSON "
                        "(default: perf_check_report.json next to the "
                        "trajectory)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="shard a grid family across N worker "
                        "processes (shared memmapped graphs; per-cell "
                        "times come from the workers)")
    parser.add_argument("--resume-from", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="per-cell checkpoint directory for a grid "
                        "family: cells recorded there are loaded, the "
                        "rest run and are checkpointed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    grid = FAMILIES[args.family].measure is measure_grid
    if (args.workers is not None or args.resume_from is not None) and not grid:
        parser.error(f"--workers/--resume-from need a grid family (full, "
                     f"quick, scale/*), not {args.family!r}")
    if args.check and not args.json.exists():
        parser.error(f"--check: trajectory {args.json} does not exist")
    cells = FAMILIES[args.family].cells
    if args.only:
        prefixes = tuple(p for p in args.only.split(",") if p)
        cells = [c for c in cells if c.name.startswith(prefixes)]
        if not cells:
            parser.error(f"--only {args.only!r} matches no "
                         f"{args.family!r} cells")
    return args, cells


def main(argv=None) -> int:
    args, cells = parse_args(argv)
    family = FAMILIES[args.family]
    print(f"perf_report: {args.family} cells={len(cells)} "
          f"repeats={args.repeats}")
    measured = family.measure(cells, args)
    times = measured.times
    # ru_maxrss is this process's high-water mark (KB on Linux); children
    # and workers report theirs per cell
    peak_rss_mb = round(max(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         *measured.cell_rss_mb.values()]
    ), 1)
    point = {
        "label": args.label or args.family,
        # every point since the seed's per-address loop left src/ is
        # batched; --check and the trajectory schema rely on the field
        "mode": "batched",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "family": args.family,
        "times": times,
        "peak_rss_mb": peak_rss_mb,
    }
    if measured.cell_rss_mb:
        point["cell_rss_mb"] = measured.cell_rss_mb
    if measured.details:
        point["details"] = measured.details
    print(f"peak RSS: {peak_rss_mb} MB")

    report = load_trajectory(args.json)
    base_times, base_labels = baseline_times(report)
    shared = [c for c in cells if c.name in base_times and c.name in times]
    if shared:
        point["speedup_vs_baseline"] = {
            c.name: round(base_times[c.name] / times[c.name], 3)
            for c in shared
        }
        rows_new = row_totals(shared, times)
        rows_base = row_totals(shared, base_times)
        point["row_speedup_vs_baseline"] = {
            row: round(rows_base[row] / rows_new[row], 3) for row in rows_new
        }
        labels = sorted({base_labels[c.name] for c in shared})
        print(f"\nvs baseline point(s) {labels}:")
        for name, speedup in point["speedup_vs_baseline"].items():
            print(f"  {name:38s} {speedup:7.2f}x")
        print("row totals:")
        for row, speedup in point["row_speedup_vs_baseline"].items():
            print(f"  {row:38s} {speedup:7.2f}x")
    else:
        print("no cells shared with a baseline point; "
              "skipping speedup comparison")

    if args.check:
        report_out = args.report_out or (
            args.json.parent / "perf_check_report.json"
        )
        return run_gate(args.family, family, report, point, report_out)
    if not args.no_write:
        for cell in cells:
            report["workloads"].setdefault(cell.name, {
                "row": cell.row,
                "algorithm": cell.algorithm,
                "dataset": cell.dataset,
                "max_iterations": cell.max_iterations,
            })
        report["trajectory"].append(point)
        args.json.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nappended trajectory point {point['label']!r} to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
