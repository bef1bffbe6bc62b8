"""Command-line interface: ``python -m repro <command>``.

Commands:

``list``
    Show every reproducible figure with its paper headline.
``figure <id> [--fast] [--profile NAME] [--workers N] [--resume]
[--checkpoint-dir DIR] [--tile-backing memory|disk]``
    Regenerate one figure table (e.g. ``fig10``, ``fig19b``).  With
    ``--fast`` the experiment grid is trimmed (fewer datasets and
    iterations) for a quick smoke run.  ``--profile`` selects the
    experiment scale (``toy`` default, ``mid``, ``paper``).
    ``--workers`` shards the figure's grid across worker processes that
    share memmapped graphs; ``--resume`` (with ``--checkpoint-dir``,
    default ``.repro_checkpoints``) skips cells already checkpointed by
    an earlier -- possibly killed -- run.  ``--tile-backing disk``
    builds tiles with the bucketed external sort into a memmapped tile
    store (``--tile-store-root``) instead of holding them in RAM --
    bit-identical results at bounded RSS.
``profiles``
    Print the scale-profile knob table (toy / mid / paper).
``microbench [--engine]``
    Run the Fig. 9 strided microbenchmark on the analytic model or the
    command-level engine.
``validate``
    Check the command-level engine's Sec. VI virtual-row traces with its
    trace checker and replay them through the functional FIM bank
    (the FPGA-emulation substitute).
``datasets``
    Print the scaled dataset registry (Table II stand-ins).
``serve [--host H] [--port P] [--store DIR] [--jobs N]``
    Run the long-lived experiment service: POST experiment configs to
    ``/experiments``, repeat requests are served from the
    content-addressed result cache (see docs/SERVICE.md).

The figure functions live in :mod:`repro.experiments.figures`; the CLI
is a thin dispatcher so results match the pytest benches exactly.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.experiments import figures

#: figure id -> (callable, paper headline, fast-mode kwargs)
FIGURES: dict[str, tuple[Callable[..., list[dict]], str, dict]] = {
    "fig3": (figures.figure_3,
             "BFS traffic: >90% unuseful without tiling; RD inflation "
             "under perfect tiling",
             {"datasets": ("SW",)}),
    "fig9": (figures.figure_9, "FIM speedup ~4x at stride 8", {}),
    "fig10": (figures.figure_10,
              "Piccolo GM 1.62x; 1.68x over NMP; 2.83x over PIM",
              {"datasets": ("UU", "SW"), "algorithms": ("PR", "BFS")}),
    "fig11": (figures.figure_11,
              "Piccolo within ~4% of the 8B-line ideal",
              {"datasets": ("UU", "SW"), "algorithms": ("PR", "BFS")}),
    "fig12": (figures.figure_12, "43.2% fewer off-chip transactions",
              {"datasets": ("UU", "SW"), "algorithms": ("PR", "BFS")}),
    "fig13": (figures.figure_13,
              "Piccolo 60.3% off-chip utilisation + internal bandwidth",
              {"datasets": ("UU", "SW"), "algorithms": ("PR", "BFS")}),
    "fig14": (figures.figure_14, "37.3% GM energy reduction",
              {"datasets": ("UU", "SW"), "algorithms": ("PR", "BFS")}),
    "fig15": (figures.figure_15, "DDR4 x16 benefits most; 32B-burst "
              "devices less", {"algorithms": ("PR", "BFS")}),
    "fig16": (figures.figure_16, "more ranks -> more FIM speedup",
              {"algorithms": ("PR", "BFS")}),
    "fig17": (figures.figure_17, "Piccolo prefers larger tiles (x2-x8)",
              {"algorithms": ("PR", "BFS")}),
    "fig18": (figures.figure_18,
              "Piccolo wins on WS and Kronecker synthetics",
              {"datasets": ("WS26", "KN25")}),
    "fig19a": (figures.figure_19a, "edge-centric also gains, except UU",
               {"datasets": ("UU", "SW")}),
    "fig19b": (figures.figure_19b, "~3.8x on OLAP selects",
               {"num_rows": 1 << 13}),
    "fig20a": (figures.figure_20a, "+17.9% (x4) / +20.3% (HBM) with "
               "enhanced FIM", {"algorithms": ("PR", "BFS")}),
    "fig20b": (figures.figure_20b, "~22.8% slowdown without prefetching",
               {"datasets": ("UU", "SW")}),
}


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in FIGURES)
    for name, (_, headline, _fast) in FIGURES.items():
        print(f"{name:<{width}}  {headline}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import dataclasses
    import inspect

    from repro.experiments.config import get_profile

    key = args.id.lower().replace(".", "").replace("_", "")
    if key not in FIGURES:
        print(f"unknown figure {args.id!r}; run `python -m repro list`",
              file=sys.stderr)
        return 2
    fn, headline, fast_kwargs = FIGURES[key]
    kwargs = dict(fast_kwargs) if args.fast else {}
    scale = get_profile(args.profile)
    if args.tile_backing is not None:
        scale = dataclasses.replace(scale, tile_backing=args.tile_backing)
    if args.tile_store_root is not None:
        scale = dataclasses.replace(
            scale, tile_store_root=args.tile_store_root
        )
    params = inspect.signature(fn).parameters
    takes_scale = "scale" in params
    if takes_scale:
        kwargs["scale"] = scale
    elif (
        args.profile != "toy" or args.tile_backing is not None
        or args.tile_store_root is not None
    ):
        print(f"note: {key} does not take a scale profile; ignoring "
              f"--profile/--tile-backing", file=sys.stderr)
    wants_workers = (
        args.workers is not None or args.resume
        or args.checkpoint_dir is not None
    )
    if "workers" in params:
        if wants_workers:
            kwargs["workers"] = args.workers
            kwargs["resume"] = args.resume
            kwargs["checkpoint_dir"] = args.checkpoint_dir
    elif wants_workers:
        print(f"note: {key} has no run_system grid to shard; ignoring "
              f"--workers/--resume/--checkpoint-dir", file=sys.stderr)
    rows = fn(**kwargs)
    title = f"{key} -- paper: {headline}"
    if takes_scale and scale.name != "toy":
        title = f"{key} [{scale.name}] -- paper: {headline}"
    figures.print_rows(title, rows)
    return 0


def _cmd_microbench(args: argparse.Namespace) -> int:
    if args.engine:
        from repro.dram.engine.xval import microbench_speedups
        from repro.dram.spec import default_config

        rows = []
        for single_row in (True, False):
            for row in microbench_speedups(default_config(), 1 << 18,
                                           single_row=single_row):
                rows.append({
                    "layout": "single-row" if single_row else "multi-row",
                    **{k: v for k, v in row.items()},
                })
        figures.print_rows("Fig. 9 on the command-level engine", rows)
    else:
        figures.print_rows("Fig. 9 (analytic)", figures.figure_9())
    return 0


def _cmd_validate(_args: argparse.Namespace) -> int:
    import numpy as np

    from repro.dram.engine import DRAMEngine, check_engine_result
    from repro.dram.engine.workloads import fim_requests, random_mix
    from repro.dram.spec import default_config
    from repro.validate.end_to_end import validate_fim_data_path

    config = default_config()
    ok = validate_fim_data_path()
    print(f"functional gather/scatter + Sec. VI command translation: "
          f"{'OK' if ok else 'FAILED'}")
    engine = DRAMEngine(config, refresh_enabled=True)
    addrs, _ = random_mix(config, 400, seed=0)
    requests, channels = fim_requests(config, addrs)
    result = engine.run(requests, channels)
    checked = check_engine_result(result)
    print(f"cycle-level engine trace: {checked} commands, "
          f"{result.stats.gathers} gathers -- protocol clean")
    return 0 if ok else 1


def _cmd_profiles(_args: argparse.Namespace) -> int:
    from repro.experiments.config import PROFILES

    knob_rows = [profile.describe() for profile in PROFILES.values()]
    keys = list(knob_rows[0])
    width = max(len(k) for k in keys)
    header = f"{'knob':<{width}}" + "".join(
        f" {row['name']:>12}" for row in knob_rows
    )
    print(header)
    for key in keys:
        if key == "name":
            continue
        cells = "".join(f" {str(row[key]):>12}" for row in knob_rows)
        print(f"{key:<{width}}{cells}")
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.graph.datasets import DATASETS, load_dataset

    print(f"{'key':<6} {'paper graph':<24} {'|V|':>9} {'|E|':>10} "
          f"{'avg deg':>8}")
    for key, spec in DATASETS.items():
        graph = load_dataset(key)
        degree = graph.num_edges / max(1, graph.num_vertices)
        print(f"{key:<6} {spec.description:<24} {graph.num_vertices:>9}"
              f" {graph.num_edges:>10} {degree:>8.1f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ExperimentService, serve

    service = ExperimentService(
        args.store,
        max_workers=args.jobs,
        workers_per_job=args.job_workers,
        trajectory_path=args.trajectory,
    )
    serve(service, args.host, args.port)
    return 0


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``minimum``, so a
    bad count is a usage error naming its flag, not a traceback."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Piccolo (HPCA 2025) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible figures").set_defaults(
        fn=_cmd_list
    )
    figure = sub.add_parser("figure", help="regenerate one figure")
    figure.add_argument("id", help="figure id, e.g. fig10")
    figure.add_argument("--fast", action="store_true",
                        help="trimmed grid for a quick smoke run")
    from repro.experiments.config import PROFILES

    figure.add_argument("--profile", default="toy", choices=sorted(PROFILES),
                        help="experiment scale profile (default: toy)")
    figure.add_argument("--tile-backing", default=None,
                        choices=("memory", "disk"),
                        help="tile-array backing: disk builds tiles by "
                        "bucketed external sort into a memmapped store "
                        "(bounded RSS, bit-identical results)")
    figure.add_argument("--tile-store-root", default=None, metavar="DIR",
                        help="tile-store directory for --tile-backing "
                        "disk (default: REPRO_TILE_STORE or a per-"
                        "process temp dir)")
    figure.add_argument("--workers", type=_at_least(0), default=None,
                        metavar="N",
                        help="shard the figure's grid across N worker "
                        "processes (shared memmapped graphs)")
    figure.add_argument("--resume", action="store_true",
                        help="load finished cells from the checkpoint "
                        "directory instead of re-running them")
    figure.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="per-cell checkpoint directory (default "
                        "with --resume: .repro_checkpoints)")
    figure.set_defaults(fn=_cmd_figure)
    micro = sub.add_parser("microbench", help="Fig. 9 strided sweep")
    micro.add_argument("--engine", action="store_true",
                       help="use the command-level engine")
    micro.set_defaults(fn=_cmd_microbench)
    sub.add_parser(
        "validate", help="protocol validation (FPGA-emulation substitute)"
    ).set_defaults(fn=_cmd_validate)
    sub.add_parser(
        "profiles", help="scale-profile knob table (toy / mid / paper)"
    ).set_defaults(fn=_cmd_profiles)
    sub.add_parser("datasets", help="scaled dataset registry").set_defaults(
        fn=_cmd_datasets
    )
    serve_cmd = sub.add_parser(
        "serve",
        help="long-lived experiment service with a content-addressed "
        "result cache (see docs/SERVICE.md)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8321,
                           help="bind port (default: 8321; 0 picks a "
                           "free port)")
    serve_cmd.add_argument("--store", default=".repro_service",
                           metavar="DIR",
                           help="content-addressed result store "
                           "(checkpoint-store layout; point it at a "
                           "sweep's --checkpoint-dir to serve its "
                           "cells; default: .repro_service)")
    serve_cmd.add_argument("--jobs", type=_at_least(1), default=1,
                           metavar="N",
                           help="background simulation threads "
                           "(default: 1)")
    serve_cmd.add_argument("--job-workers", type=_at_least(0), default=0,
                           metavar="N",
                           help="process-pool width per job via the "
                           "sharded sweep runner (default: 0 = run "
                           "in the job thread)")
    serve_cmd.add_argument("--trajectory", default="BENCH_hotpath.json",
                           metavar="PATH",
                           help="trajectory JSON exposed at "
                           "/trajectory (default: BENCH_hotpath.json)")
    serve_cmd.set_defaults(fn=_cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
