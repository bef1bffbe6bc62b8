#!/usr/bin/env python
"""Wall-clock regression harness for the memory-path hot loop.

Times representative Fig. 10 / Fig. 11 cells (the random-access
cache/MSHR path dominates all of them) and appends a point to the
``BENCH_hotpath.json`` trajectory at the repo root, so every PR can
*show* its speedup or regression against the recorded history instead
of asserting it.  The first trajectory point is the seed
implementation, measured from a pristine checkout; per-cell and per-row
(system) speedups are reported against it.

Usage::

    PYTHONPATH=src python tools/perf_report.py                # full grid
    PYTHONPATH=src python tools/perf_report.py --quick        # CI smoke
    PYTHONPATH=src python tools/perf_report.py --no-write

Every run times the production (batched) memory path and records a
``"mode": "batched"`` point.  Speedups are reported against each cell's
*earliest* baseline point: the pristine seed checkout (``seed``), or a
scalar point recorded while the seed's per-address loop was still a
runtime mode (``scalar-fig11-variants-a/b`` for the Fig. 11 variant
rows, ``scalar-engine-xval-mid/paper`` for the engine cells).  That
loop now lives only in ``tests/reference_paths.py``, where the
batched-equivalence suite and ``benchmarks/bench_perf_hotpath.py`` use
it as the reference, so no new baseline can be recorded here; a cell
without one reports no speedup.

``--only PREFIX`` restricts the run to cells whose name starts with
``PREFIX`` (e.g. ``--only fig11/``).

``--engine-xval toy|mid|paper`` times the command-level DRAM engine's
cross-validation grid (``engine-xval/<profile>/<workload>``) instead of
the memory-path cells: each cell runs one workload through
:class:`repro.dram.engine.DRAMEngine` and records the wall-clock of the
engine run plus its engine/analytic duration ratio, with
``speedup_vs_baseline`` against the recorded scalar-controller points.
``--check`` gates these cells against their latest batched point like
any other.
The mid profile is the tier-1 CI smoke; paper runs nightly.

``--profile mid|paper`` times that scale profile's cells
(``scale/<profile>/...``) instead of the toy grid, recording the
mid/paper-scale trajectory: wall-clock per cell plus the process peak
RSS.  These cells have no scalar baseline (the seed could not run them
at all); their value is the recorded trend itself.  ``--chunk-size``
overrides the profile's memory-path tile chunking for the run.

``--ooc mid|paper`` times the out-of-core tile-backing cells
(``ooc/<profile>/<backing>/...``) instead of the memory-path grid: each
cell runs in a *spawned child process* (RSS high-water marks never
reset within a process) with the dataset materialised to a memmap and
the tile arrays built memory- or disk-backed into a fresh store, and
records wall-clock plus the child's peak *anonymous* RSS (file-backed
memmap pages are reclaimable, so they are excluded -- bounded anonymous
memory is the out-of-core claim).  The paper suite includes the
100M+-edge Kronecker cell (``KN28`` at ``scale_shift=4``) that only the
disk backing can run at bounded RSS.  ``--check`` / ``--max-rss-mb``
gate these cells like any other; the per-cell anonymous peaks feed the
RSS budget.  Single-shot timings (one child per cell); ``--repeats`` is
ignored.

``--service`` times the experiment service's cache-hit path
(``service/...`` cells) instead of the memory-path grid: an
in-process stdlib server (``repro.service``) is stood up on an
ephemeral localhost port, one miss is simulated to warm the
content-addressed store, and the recorded cell is the best observed
wall-clock of a repeated identical ``POST /experiments`` -- request
parse, digest canonicalization, cache lookup, and the full
``SystemResult`` record over the wire, no re-simulation.  ``--check``
gates it like any other cell (CI uses a wider ratio: localhost
latency on shared runners jitters more than simulation wall-clock).

``--check`` turns the run into a CI perf-regression *gate*: every timed
cell is compared against its most recent recorded batched-mode
trajectory point, and the process exits non-zero if any cell is slower
than ``--check-ratio`` (default 1.3x) times its recorded time.  No
trajectory point is written; a machine-readable verdict goes to
``--report-out`` (default ``perf_check_report.json`` next to the
trajectory) for upload as a workflow artifact.  Cells with no recorded
reference are reported as ``no-baseline`` and do not fail the gate.

``--max-seconds`` / ``--max-rss-mb`` are absolute budgets (nightly
paper-profile watchdog): exceed either and the run exits non-zero.

``--workers N`` shards the run across worker processes through the
parallel sweep orchestrator (shared memmapped graphs); with
``--resume-from DIR`` cells already checkpointed under ``DIR`` are
loaded instead of re-run (the sharded-nightly mode).  Checkpoint-loaded
cells are *excluded* from the recorded times -- a trajectory point only
ever contains real measurements.

``--parallel`` times the worker-scaling benchmark instead of the cell
grid: one fixed mid-profile Fig. 10 PR sweep (UU/SW x GraphDyns-Cache/
Piccolo/NMP, 6 cells) run end-to-end at each worker count in
``--worker-counts`` (default 1,2,4,8), recorded as trajectory cells
``parallel/mid-fig10pr/w{N}``.  ``--check`` gates these cells like any
other.

Workload notes: BFS runs to frontier exhaustion; PR runs 12 identical
power iterations (the figure harness caps PR at 3 purely for seed
wall-clock reasons -- the paper itself runs up to 40, so a deeper run is
the *representative* cost of the workload, and is exactly where the
batch-replay memo pays off).  The Fig. 11 cells name their cache by
``cache_design`` (``repro.cache.variants.FIG11_DESIGNS``), so they are
digestable and picklable like every other cell.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time
from datetime import datetime, timezone

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_hotpath.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cache.variants import FIG11_VARIANTS  # noqa: E402
from repro.experiments import parallel  # noqa: E402
from repro.dram.engine.xval import (  # noqa: E402
    ENGINE_XVAL_PROFILES,
    ENGINE_XVAL_WORKLOADS,
    run_engine_xval_cell,
)
from repro.experiments.ooc import OOC_CELLS, run_ooc_cell  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    CellSpec,
    clear_result_cache,
    run_system,
)


def _fig11_cell(name, design):
    """A Fig. 11 design-sweep cell: the Piccolo system with the named
    design's cache substituted (same substitution ``figures.figure_11``
    makes)."""
    return (
        f"fig11/{name}/PR/TW",
        design,
        "PR",
        "TW",
        12,
        {"_system": "Piccolo", "cache_design": design},
    )


#: (cell name, row/system, algorithm, dataset, max_iterations, kwargs)
FULL_CELLS = [
    ("fig10/Piccolo/BFS/TW", "Piccolo", "BFS", "TW", 40, {}),
    ("fig10/Piccolo/PR/TW", "Piccolo", "PR", "TW", 12, {}),
    ("fig10/GraphDyns-Cache/BFS/TW", "GraphDyns (Cache)", "BFS", "TW", 40, {}),
    ("fig10/GraphDyns-Cache/PR/TW", "GraphDyns (Cache)", "PR", "TW", 12, {}),
    ("fig10/NMP/BFS/TW", "NMP", "BFS", "TW", 40, {}),
    ("fig10/NMP/PR/TW", "NMP", "PR", "TW", 12, {}),
    _fig11_cell("Piccolo-RRIP", "Piccolo (RRIP)"),
] + [_fig11_cell(design, design) for design in FIG11_VARIANTS]
# distinct names: quick cells run fewer iterations, so they must never
# be compared against the full-grid baseline entries
QUICK_CELLS = [
    ("quick/Piccolo/PR3/TW", "Piccolo", "PR", "TW", 3, {}),
    ("quick/GraphDyns-Cache/PR3/TW", "GraphDyns (Cache)", "PR", "TW", 3, {}),
]

#: scale-profile cells (``--profile``): the mid/paper trajectory.  The
#: ``_scale`` kwarg routes the profile into ``run_system``; iteration
#: caps come from the profile itself (PR x3).
PROFILE_CELLS = {
    "mid": [
        ("scale/mid/Piccolo/PR/SW", "Piccolo", "PR", "SW", None,
         {"_scale": "mid"}),
        ("scale/mid/GraphDyns-Cache/PR/SW", "GraphDyns (Cache)", "PR", "SW",
         None, {"_scale": "mid"}),
        ("scale/mid/Piccolo/PR/UU", "Piccolo", "PR", "UU", None,
         {"_scale": "mid"}),
    ],
    "paper": [
        ("scale/paper/Piccolo/PR/SW", "Piccolo", "PR", "SW", None,
         {"_scale": "paper"}),
        ("scale/paper/Piccolo/PR/UU", "Piccolo", "PR", "UU", None,
         {"_scale": "paper"}),
    ],
}

#: the ``--service`` cache-hit-latency suite: one warm toy cell behind
#: the stdlib service backend; the cell name pins the config below
SERVICE_CELLS = [
    ("service/hit-latency/toy-pr3", "service", "PR", "TW", 3, {}),
]
SERVICE_CONFIG = {
    "system": "Piccolo",
    "algorithm": "PR",
    "dataset": "TW",
    "profile": "toy",
    "max_iterations": 3,
}
#: identical POSTs timed per --repeats unit (best-of is recorded)
SERVICE_REQUESTS_PER_REPEAT = 30

#: the fixed ``--parallel`` worker-scaling sweep: the mid-profile
#: Fig. 10 PR grid over the two fastest real-world datasets
PARALLEL_SWEEP_SYSTEMS = ("GraphDyns (Cache)", "Piccolo", "NMP")
PARALLEL_SWEEP_DATASETS = ("UU", "SW")
PARALLEL_SWEEP_NAME = "parallel/mid-fig10pr"


def time_cell(system, algorithm, dataset, max_iterations, kwargs, repeats):
    best = math.inf
    extra = dict(kwargs)
    system = extra.pop("_system", system)
    scale = extra.pop("_scale", None)
    if scale is not None:
        extra["scale"] = scale
    for _ in range(repeats):
        clear_result_cache()
        start = time.perf_counter()
        run_system(
            system,
            algorithm,
            dataset,
            max_iterations=max_iterations,
            **extra,
        )
        best = min(best, time.perf_counter() - start)
    return best


def run_suite(cells, repeats):
    times = {}
    for name, row, algorithm, dataset, iters, kwargs in cells:
        times[name] = round(
            time_cell(row, algorithm, dataset, iters, kwargs, repeats), 4
        )
        print(f"  {name:38s} {times[name]:8.3f} s", flush=True)
    return times


def engine_xval_cells(profile):
    """The ``--engine-xval`` suite in the common cell-tuple shape."""
    return [
        (f"engine-xval/{profile}/{workload}", "dram-engine", workload,
         profile, None, {})
        for workload in ENGINE_XVAL_WORKLOADS
    ]


def run_engine_xval_suite(cells, repeats):
    """Time the engine cross-validation grid.

    Returns (times, ratios): best-of-``repeats`` engine wall seconds and
    the engine/analytic duration ratio per cell (the cross-validation
    payload recorded alongside the timing).
    """
    times, ratios = {}, {}
    for name, _row, workload, profile, *_ in cells:
        best = math.inf
        for _ in range(repeats):
            result = run_engine_xval_cell(profile, workload)
            best = min(best, result["seconds"])
        times[name] = round(best, 4)
        ratios[name] = round(result["ratio"], 4)
        print(f"  {name:38s} {times[name]:8.3f} s  "
              f"(xval ratio {ratios[name]:.3f})", flush=True)
    return times, ratios


def _cell_spec(row, algorithm, dataset, iters, kwargs):
    """Translate a suite cell tuple into a picklable CellSpec."""
    extra = dict(kwargs)
    system = extra.pop("_system", row)
    scale = extra.pop("_scale", "toy")
    return CellSpec(
        system=system,
        algorithm=algorithm,
        dataset=dataset,
        scale=scale,
        max_iterations=iters,
        chunk_size=extra.pop("chunk_size", None),
        cache_design=extra.pop("cache_design", None),
        system_kwargs=tuple(sorted(extra.items())),
    )


def run_suite_sharded(cells, workers, resume_from):
    """Run the suite through the parallel orchestrator.

    Returns (times, loaded): per-cell wall-clock for cells that actually
    ran (worker-reported, single-shot -- no best-of-repeats across
    processes) and the names of cells served from checkpoints, which are
    reported but kept out of the recorded times.
    """
    specs = [
        _cell_spec(row, alg, ds, iters, kw)
        for _, row, alg, ds, iters, kw in cells
    ]
    outcomes = parallel.run_cells(
        specs,
        workers=workers,
        resume=resume_from is not None,
        checkpoint_dir=resume_from,
    )
    times, loaded, rss = {}, [], {}
    for (name, *_), outcome in zip(cells, outcomes):
        if outcome.source == "checkpoint":
            loaded.append(name)
            print(f"  {name:38s} (from checkpoint)", flush=True)
        else:
            times[name] = round(outcome.seconds, 4)
            rss[name] = round(outcome.rss_mb, 1)
            print(f"  {name:38s} {times[name]:8.3f} s  "
                  f"[{outcome.source}]", flush=True)
    return times, loaded, rss


def ooc_cells(profile):
    """The ``--ooc`` suite in the common cell-tuple shape."""
    return [
        (
            cell.name,
            cell.system,
            cell.algorithm,
            cell.dataset if cell.scale_shift is None
            else f"{cell.dataset}@s{cell.scale_shift}",
            None,
            {},
        )
        for cell in OOC_CELLS[profile]
    ]


def run_ooc_suite(cells, profile):
    """Run the out-of-core cells, one spawned child each.

    Returns (times, rss, detail): per-cell run wall seconds, the child's
    peak anonymous RSS in MB (what ``--max-rss-mb`` gates), and the full
    per-cell measurement payloads (recorded in the trajectory point).
    """
    import tempfile

    lookup = {cell.name: cell for cell in OOC_CELLS[profile]}
    times, rss, detail = {}, {}, {}
    with tempfile.TemporaryDirectory(prefix="repro-ooc-") as root:
        for name, *_ in cells:
            payload = run_ooc_cell(lookup[name], root)
            times[name] = payload["seconds"]
            rss[name] = payload["rss_anon_peak_mb"]
            detail[name] = payload
            print(
                f"  {name:38s} {times[name]:8.3f} s  "
                f"anon peak {rss[name]:8.1f} MB  "
                f"(+{payload['materialize_seconds']:.1f}s materialize)",
                flush=True,
            )
    return times, rss, detail


def run_service_suite(repeats):
    """Time the experiment service's cache-hit path over localhost.

    Stands up the stdlib service backend on an ephemeral port, runs the
    fixed toy config once (the miss that warms the content-addressed
    store), then times ``repeats * SERVICE_REQUESTS_PER_REPEAT``
    identical POSTs -- every one must come back as a cache hit carrying
    the full result record.  Returns (times, detail): the best observed
    hit latency per cell plus the sample distribution.
    """
    import http.client
    import tempfile
    import threading

    from repro.service import ExperimentService, make_server

    times, detail = {}, {}
    (name, *_), = SERVICE_CELLS
    body = json.dumps(SERVICE_CONFIG)
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

            _status, payload = post()
            digest = payload["digest"]
            deadline = time.monotonic() + 300
            state = payload
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
            for _ in range(max(1, repeats) * SERVICE_REQUESTS_PER_REPEAT):
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
    times[name] = round(samples[0], 6)
    detail[name] = {
        "requests": len(samples),
        "best_s": round(samples[0], 6),
        "median_s": round(samples[len(samples) // 2], 6),
        "p90_s": round(samples[int(len(samples) * 0.9)], 6),
        "miss_run_seconds": state.get("seconds"),
        "config": dict(SERVICE_CONFIG),
    }
    print(f"  {name:38s} {times[name]:8.6f} s  "
          f"(median {detail[name]['median_s']:.6f} s over "
          f"{len(samples)} hits; miss ran "
          f"{detail[name]['miss_run_seconds']} s)", flush=True)
    return times, detail


def time_parallel_sweep(worker_counts, repeats, graph_dir):
    """Wall-clock the fixed mid-profile sweep at each worker count."""
    specs = [
        CellSpec(system=system, algorithm="PR", dataset=dataset, scale="mid")
        for system in PARALLEL_SWEEP_SYSTEMS
        for dataset in PARALLEL_SWEEP_DATASETS
    ]
    times = {}
    rss = {}
    for workers in worker_counts:
        name = f"{PARALLEL_SWEEP_NAME}/w{workers}"
        best = math.inf
        for _ in range(repeats):
            clear_result_cache()
            start = time.perf_counter()
            outcomes = parallel.run_cells(
                specs, workers=workers, graph_dir=graph_dir
            )
            best = min(best, time.perf_counter() - start)
            rss[name] = parallel.sweep_rss_mb(outcomes)
        times[name] = round(best, 4)
        print(f"  {name:38s} {times[name]:8.3f} s  "
              f"(max worker RSS {rss[name]['max_worker_rss_mb']} MB)",
              flush=True)
    return times, rss


def row_totals(cells, times):
    rows: dict[str, float] = {}
    for name, row, *_ in cells:
        if name in times:
            rows[row] = rows.get(row, 0.0) + times[name]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--label", default=None)
    parser.add_argument("--json", type=pathlib.Path, default=DEFAULT_JSON)
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print only"
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="PREFIXES",
        help="restrict to cells whose name starts with one of the "
        "comma-separated prefixes",
    )
    parser.add_argument(
        "--profile",
        default=None,
        choices=sorted(PROFILE_CELLS),
        help="time this scale profile's cells instead of the toy grid",
    )
    parser.add_argument(
        "--engine-xval",
        default=None,
        choices=sorted(ENGINE_XVAL_PROFILES),
        metavar="PROFILE",
        help="time the DRAM engine cross-validation grid at this scale "
        "profile instead of the memory-path cells",
    )
    parser.add_argument(
        "--ooc",
        default=None,
        choices=sorted(OOC_CELLS),
        metavar="PROFILE",
        help="time the out-of-core tile-backing cells at this scale "
        "profile (memory- vs disk-backed builds in spawned children; "
        "per-cell peak anonymous RSS feeds --max-rss-mb)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="time the experiment service's cache-hit path "
        "(service/... cells) over an in-process localhost server "
        "instead of the memory-path grid",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="override the profile's memory-path tile chunking",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="perf-regression gate: fail on >--check-ratio slowdown vs "
        "the recorded trajectory (implies --no-write)",
    )
    parser.add_argument(
        "--check-ratio",
        type=float,
        default=1.3,
        metavar="R",
        help="max tolerated slowdown per cell in --check mode",
    )
    parser.add_argument(
        "--report-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="where to write the --check / budget verdict JSON "
        "(default: perf_check_report.json next to the trajectory)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="absolute budget: fail if the summed best cell times exceed S",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="absolute budget: fail if process peak RSS exceeds MB",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard the cell grid across N worker processes (shared "
        "memmapped graphs; per-cell times come from the workers)",
    )
    parser.add_argument(
        "--resume-from",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="per-cell checkpoint directory: cells already recorded "
        "there are loaded, everything else runs and is checkpointed "
        "(sharded-nightly mode; implies a sharded run)",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="time the worker-scaling benchmark (the fixed mid-profile "
        "Fig. 10 PR sweep at each --worker-counts count) instead of "
        "the cell grid",
    )
    parser.add_argument(
        "--worker-counts",
        default="1,2,4,8",
        metavar="LIST",
        help="comma-separated worker counts for --parallel",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.check_ratio <= 1.0:
        parser.error("--check-ratio must be > 1.0")
    sharded = args.workers is not None or args.resume_from is not None
    if args.parallel and (args.profile or sharded):
        parser.error("--parallel is its own suite; it does not combine "
                     "with --profile/--workers/--resume-from")
    if args.engine_xval and (args.profile or args.parallel or sharded
                             or args.quick
                             or args.chunk_size is not None):
        parser.error("--engine-xval is its own suite; it does not combine "
                     "with --profile/--parallel/--workers/--resume-from/"
                     "--quick/--chunk-size")
    if args.ooc and (args.profile or args.parallel or sharded or args.quick
                     or args.engine_xval or args.chunk_size is not None):
        parser.error("--ooc is its own suite; it does not combine with "
                     "--profile/--parallel/--workers/--resume-from/--quick/"
                     "--engine-xval/--chunk-size")
    if args.service and (args.profile or args.parallel or sharded
                         or args.quick or args.engine_xval or args.ooc
                         or args.chunk_size is not None):
        parser.error("--service is its own suite; it does not combine "
                     "with --profile/--parallel/--workers/--resume-from/"
                     "--quick/--engine-xval/--ooc/--chunk-size")
    try:
        worker_counts = [
            int(c) for c in args.worker_counts.split(",") if c
        ]
    except ValueError:
        parser.error(f"bad --worker-counts {args.worker_counts!r}")
    if args.parallel and (not worker_counts
                          or any(c < 1 for c in worker_counts)):
        parser.error("--worker-counts must be positive integers")

    if args.profile:
        cells = PROFILE_CELLS[args.profile]
    elif args.engine_xval:
        cells = engine_xval_cells(args.engine_xval)
    elif args.ooc:
        cells = ooc_cells(args.ooc)
    elif args.service:
        cells = list(SERVICE_CELLS)
    elif args.parallel:
        cells = []
    else:
        cells = QUICK_CELLS if args.quick else FULL_CELLS
    if args.chunk_size is not None:
        cells = [
            (name, row, alg, ds, iters, {**kw, "chunk_size": args.chunk_size})
            for name, row, alg, ds, iters, kw in cells
        ]
    if args.only and not args.parallel:
        prefixes = tuple(p for p in args.only.split(",") if p)
        cells = [c for c in cells if c[0].startswith(prefixes)]
        if not cells:
            parser.error(f"--only {args.only!r} matches no cells")
    if args.check:
        args.no_write = True
    label = args.label or (
        "parallel" if args.parallel
        else f"batched-engine-xval-{args.engine_xval}" if args.engine_xval
        else f"ooc-{args.ooc}" if args.ooc
        else "service" if args.service
        else f"batched-{args.profile}" if args.profile else "batched"
    )

    loaded_cells: list[str] = []
    parallel_rss: dict[str, dict] = {}
    cell_rss: dict[str, float] = {}
    if args.parallel:
        print(f"perf_report: worker-scaling sweep, counts={worker_counts} "
              f"repeats={args.repeats}")
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-graphs-") as gdir:
            times, parallel_rss = time_parallel_sweep(
                worker_counts, args.repeats, gdir
            )
    elif sharded:
        print(f"perf_report: workers={args.workers or 1} "
              f"cells={len(cells)} (sharded; single-shot timings)")
        times, loaded_cells, cell_rss = run_suite_sharded(
            cells, args.workers, args.resume_from
        )
    elif args.engine_xval:
        print(f"perf_report: engine-xval "
              f"profile={args.engine_xval} repeats={args.repeats} "
              f"cells={len(cells)}")
        times, xval_ratios = run_engine_xval_suite(cells, args.repeats)
    elif args.ooc:
        print(f"perf_report: ooc profile={args.ooc} "
              f"cells={len(cells)} (spawned children; single-shot timings)")
        times, cell_rss, ooc_detail = run_ooc_suite(cells, args.ooc)
    elif args.service:
        print(f"perf_report: service cache-hit suite "
              f"({args.repeats * SERVICE_REQUESTS_PER_REPEAT} hit "
              f"requests over localhost)")
        times, service_detail = run_service_suite(args.repeats)
    else:
        print(f"perf_report: repeats={args.repeats} "
              f"cells={len(cells)}")
        times = run_suite(cells, args.repeats)
    import resource

    # ru_maxrss is the process high-water mark (KB on Linux): an upper
    # bound on what the chunked paths actually held.
    peak_rss_mb = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    )

    report = load_trajectory(args.json)
    base_times, base_labels = baseline_times(report)
    point = {
        "label": label,
        # every point since the seed's per-address loop left src/ is
        # batched; --check and the trajectory schema rely on the field
        "mode": "batched",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": bool(args.quick),
        "times": times,
    }
    if args.profile:
        point["profile"] = args.profile
        point["peak_rss_mb"] = peak_rss_mb
        print(f"peak RSS: {peak_rss_mb} MB")
    if args.chunk_size is not None:
        point["chunk_size"] = args.chunk_size
    if args.engine_xval:
        point["engine_xval_profile"] = args.engine_xval
        point["xval_ratios"] = xval_ratios
    if args.ooc:
        point["ooc_profile"] = args.ooc
        point["cell_rss_mb"] = cell_rss
        point["ooc_cells"] = ooc_detail
    if args.service:
        point["service_cells"] = service_detail
    if sharded:
        point["workers"] = args.workers or 1
        if cell_rss:
            point["cell_rss_mb"] = cell_rss
        if loaded_cells:
            print(f"{len(loaded_cells)} cell(s) served from checkpoints "
                  f"(kept out of the recorded times): "
                  + ", ".join(loaded_cells))
    if args.parallel:
        point["worker_counts"] = worker_counts
        point["parallel_rss"] = parallel_rss

    shared = [c for c in cells if c[0] in base_times and c[0] in times]
    if shared:
        point["speedup_vs_baseline"] = {
            name: round(base_times[name] / times[name], 3)
            for name, *_ in shared
        }
        rows_new = row_totals(shared, times)
        rows_base = row_totals(shared, base_times)
        point["row_speedup_vs_baseline"] = {
            row: round(rows_base[row] / rows_new[row], 3) for row in rows_new
        }
        labels = sorted({base_labels[name] for name, *_ in shared})
        print(f"\nvs baseline point(s) {labels}:")
        for name, speedup in point["speedup_vs_baseline"].items():
            print(f"  {name:38s} {speedup:7.2f}x")
        print("row totals:")
        for row, speedup in point["row_speedup_vs_baseline"].items():
            print(f"  {row:38s} {speedup:7.2f}x")
    else:
        print("no cells shared with a baseline point (quick mode?); "
              "skipping speedup comparison")

    if not args.no_write:
        for name, row, algorithm, dataset, iters, _ in cells:
            report["workloads"].setdefault(
                name,
                {
                    "row": row,
                    "algorithm": algorithm,
                    "dataset": dataset,
                    "max_iterations": iters,
                },
            )
        if args.parallel:
            for name in times:
                report["workloads"].setdefault(
                    name,
                    {
                        "row": "parallel-sweep",
                        "algorithm": "PR",
                        "dataset": "+".join(PARALLEL_SWEEP_DATASETS),
                        "max_iterations": None,
                    },
                )
        report["trajectory"].append(point)
        args.json.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nappended trajectory point {label!r} to {args.json}")

    # -- CI gates: trajectory regression check + absolute budgets --------
    gating = (
        args.check
        or args.max_seconds is not None
        or args.max_rss_mb is not None
    )
    if not gating:
        return 0
    total_best = round(sum(times.values()), 3)
    # workers are separate processes: the RSS budget must see their
    # high-water marks too, not just the parent's
    worker_peak = max(
        [*cell_rss.values()]
        + [r["max_worker_rss_mb"] for r in parallel_rss.values()],
        default=0.0,
    )
    gate_rss_mb = max(peak_rss_mb, worker_peak)
    verdict = {
        "mode": "batched",
        "profile": args.profile,
        "quick": bool(args.quick),
        "timestamp": point["timestamp"],
        "times": times,
        "total_best_seconds": total_best,
        "peak_rss_mb": gate_rss_mb,
        "ok": True,
        "failures": [],
    }
    if args.check:
        cell_verdicts, cells_ok = check_regressions(
            report, times, args.check_ratio
        )
        verdict["check_ratio"] = args.check_ratio
        verdict["cells"] = cell_verdicts
        if not cells_ok:
            verdict["ok"] = False
            verdict["failures"].append("cell-regression")
        print(f"\nperf-regression gate (<= {args.check_ratio}x per cell):")
        for cell in cell_verdicts:
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
    # Record the static-gate status alongside the perf verdict so
    # nightly artifacts carry it.  Informational here: the blocking
    # `lint` CI job owns pass/fail, and a lint hiccup must never sink
    # a perf measurement that already ran.
    try:
        from repro.lint import run_paths as _lint_run_paths

        _lint = _lint_run_paths(
            root=pathlib.Path(__file__).resolve().parent.parent
        )
        verdict["lint"] = {
            "ok": _lint.ok,
            "files_checked": _lint.files_checked,
            "counts_by_rule": _lint.counts_by_rule(),
        }
    except Exception as exc:
        verdict["lint"] = {"ok": None, "error": repr(exc)}
    if args.max_seconds is not None and total_best > args.max_seconds:
        verdict["ok"] = False
        verdict["failures"].append(
            f"wall-clock {total_best}s > budget {args.max_seconds}s"
        )
    if args.max_rss_mb is not None and gate_rss_mb > args.max_rss_mb:
        verdict["ok"] = False
        verdict["failures"].append(
            f"peak RSS {gate_rss_mb} MB > budget {args.max_rss_mb} MB"
        )
    report_out = args.report_out or (
        args.json.parent / "perf_check_report.json"
    )
    report_out.write_text(json.dumps(verdict, indent=1) + "\n")
    print(
        f"gate verdict: {'OK' if verdict['ok'] else 'FAIL'} "
        f"(total {total_best}s, peak RSS {gate_rss_mb} MB) -> {report_out}"
    )
    if not verdict["ok"]:
        for failure in verdict["failures"]:
            print(f"  FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
