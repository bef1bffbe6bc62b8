"""One runner per evaluation figure/table of the paper.

Each ``figure_*`` function regenerates the corresponding figure's data as
a list of row dicts (the benchmark harness prints them).  All runners are
deterministic; dataset sizes and capacities come from
:class:`~repro.experiments.config.ExperimentScale`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.accel.edge_centric import ECConventionalSystem, ECPiccoloSystem
from repro.accel.pipeline import PipelineConfig
from repro.accel.systems import SYSTEM_ORDER, make_system
from repro.algorithms import ALGORITHM_ORDER
from repro.cache.variants import FIG11_DESIGNS
from repro.dram.spec import DEVICES, DRAMConfig
from repro.energy.accel_energy import system_energy
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.runner import CellSpec, run_system
from repro.graph.datasets import REAL_WORLD, SYNTHETIC, load_dataset
from repro.olap.queries import query_speedups
from repro.utils.stats import geometric_mean
from repro.validate import microbench

BASELINE = "GraphDyns (Cache)"


def _sweep(
    specs: list[CellSpec],
    *,
    workers: int | None,
    resume: bool,
    checkpoint_dir=None,
) -> None:
    """Pre-run a figure's grid through the parallel sweep orchestrator.

    Every figure keeps its serial row-building loop (the plotting order
    and derived columns live there); this helper runs the same cells
    first -- sharded across workers and/or restored from checkpoints --
    and installs the results into the runner memo, so the serial loop
    becomes pure memo lookups.  Results are bit-identical either way
    because workers run exactly the same resolved cells.
    """
    if not specs:
        return
    if workers in (None, 0, 1) and not resume and checkpoint_dir is None:
        return
    from repro.experiments import parallel

    if resume and checkpoint_dir is None:
        checkpoint_dir = parallel.DEFAULT_CHECKPOINT_DIR
    parallel.run_cells(
        specs, workers=workers, resume=resume, checkpoint_dir=checkpoint_dir
    )


# ---------------------------------------------------------------------------
# Fig. 3 -- motivational: useful vs unuseful traffic, non-tiling vs perfect
# ---------------------------------------------------------------------------
def figure_3(
    datasets: Sequence[str] = ("TW", "SW", "FS"),
    scale: ExperimentScale = DEFAULT_SCALE,
) -> list[dict]:
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale.scale_shift)
        for mode in ("Non-Tiling", "Perfect Tiling"):
            system = make_system(
                BASELINE,
                onchip_bytes=scale.baseline_cache_bytes,
                cache_ways=scale.cache_ways,
                tile_scale=1,
                replay_capacity=scale.replay_capacity,
                tile_backing=scale.tile_backing,
                tile_store_root=scale.tile_store_root,
            )
            width = graph.num_vertices if mode == "Non-Tiling" else None
            result = system.run(graph, "BFS", tile_width=width)
            rows.append(
                {
                    "dataset": dataset,
                    "mode": mode,
                    "useful_pct": 100.0 * result.useful_fraction,
                    "unuseful_pct": 100.0 * (1 - result.useful_fraction),
                    "read_transactions": result.dram.read_bursts,
                    "write_transactions": result.dram.write_bursts,
                    "cache_hit_rate": result.cache_hit_rate,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 -- FPGA microbenchmark
# ---------------------------------------------------------------------------
def figure_9(total_bytes: int = 16 * 1024 * 1024) -> list[dict]:
    rows = []
    for result in microbench.sweep(total_bytes):
        rows.append(
            {
                "layout": "single-row" if result.single_row else "multi-row",
                "stride": result.stride_words,
                "speedup": result.speedup,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 10 -- overall speedup over the six systems
# ---------------------------------------------------------------------------
def figure_10(
    datasets: Sequence[str] = REAL_WORLD,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    systems: Sequence[str] = SYSTEM_ORDER,
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(system=s, algorithm=a, dataset=d, scale=scale)
            for a in algorithms for d in datasets
            for s in dict.fromkeys((BASELINE, *systems))
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    speedups_by_system: dict[str, list[float]] = {s: [] for s in systems}
    for algorithm in algorithms:
        for dataset in datasets:
            base = run_system(BASELINE, algorithm, dataset, scale=scale)
            for system in systems:
                result = (
                    base if system == BASELINE
                    else run_system(system, algorithm, dataset, scale=scale)
                )
                speedup = base.total_ns / result.total_ns
                speedups_by_system[system].append(speedup)
                rows.append(
                    {
                        "algorithm": algorithm,
                        "dataset": dataset,
                        "system": system,
                        "speedup": speedup,
                        "cycles": result.cycles,
                    }
                )
    for system in systems:
        rows.append(
            {
                "algorithm": "GM",
                "dataset": "-",
                "system": system,
                "speedup": geometric_mean(speedups_by_system[system]),
                "cycles": float("nan"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 11 -- fine-grained cache designs on top of Piccolo-FIM
# ---------------------------------------------------------------------------
def figure_11(
    datasets: Sequence[str] = REAL_WORLD,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    designs: Iterable[str] = FIG11_DESIGNS,
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    designs = tuple(designs)
    _sweep(
        [
            CellSpec(system=BASELINE, algorithm=a, dataset=d, scale=scale)
            for a in algorithms for d in datasets
        ] + [
            CellSpec(
                system="Piccolo", algorithm=a, dataset=d, scale=scale,
                cache_design=design,
            )
            for a in algorithms for d in datasets for design in designs
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    speedups: dict[str, list[float]] = {d: [] for d in designs}
    for algorithm in algorithms:
        for dataset in datasets:
            base = run_system(BASELINE, algorithm, dataset, scale=scale)
            for design in designs:
                result = run_system(
                    "Piccolo", algorithm, dataset, scale=scale,
                    cache_design=design,
                )
                speedup = base.total_ns / result.total_ns
                speedups[design].append(speedup)
                rows.append(
                    {
                        "algorithm": algorithm,
                        "dataset": dataset,
                        "design": design,
                        "speedup": speedup,
                    }
                )
    for design in designs:
        rows.append(
            {
                "algorithm": "GM",
                "dataset": "-",
                "design": design,
                "speedup": geometric_mean(speedups[design]),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 12 -- normalized off-chip access breakdown
# ---------------------------------------------------------------------------
def figure_12(
    datasets: Sequence[str] = REAL_WORLD,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(system=s, algorithm=a, dataset=d, scale=scale)
            for a in algorithms for d in datasets
            for s in (BASELINE, "Piccolo")
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for algorithm in algorithms:
        for dataset in datasets:
            base = run_system(BASELINE, algorithm, dataset, scale=scale)
            picc = run_system("Piccolo", algorithm, dataset, scale=scale)
            base_total = base.dram.read_bursts + base.dram.write_bursts
            for name, result in ((BASELINE, base), ("Piccolo", picc)):
                rows.append(
                    {
                        "algorithm": algorithm,
                        "dataset": dataset,
                        "system": name,
                        "read_norm": result.dram.read_bursts / base_total,
                        "write_norm": result.dram.write_bursts / base_total,
                        "total_norm": (
                            result.dram.read_bursts + result.dram.write_bursts
                        ) / base_total,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 -- off-chip and internal bandwidth
# ---------------------------------------------------------------------------
def figure_13(
    datasets: Sequence[str] = REAL_WORLD,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    systems: Sequence[str] = (BASELINE, "PIM", "Piccolo"),
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(system=s, algorithm=a, dataset=d, scale=scale)
            for a in algorithms for d in datasets for s in systems
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for algorithm in algorithms:
        for dataset in datasets:
            for system in systems:
                result = run_system(system, algorithm, dataset, scale=scale)
                rows.append(
                    {
                        "algorithm": algorithm,
                        "dataset": dataset,
                        "system": system,
                        "offchip_gbps": result.offchip_bandwidth_gbps,
                        "internal_gbps": result.internal_bandwidth_gbps,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Fig. 14 -- energy breakdown
# ---------------------------------------------------------------------------
def figure_14(
    datasets: Sequence[str] = REAL_WORLD,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(system=s, algorithm=a, dataset=d, scale=scale)
            for a in algorithms for d in datasets
            for s in (BASELINE, "Piccolo")
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    config = scale.dram()
    for algorithm in algorithms:
        for dataset in datasets:
            base = run_system(BASELINE, algorithm, dataset, scale=scale)
            picc = run_system("Piccolo", algorithm, dataset, scale=scale)
            e_base = system_energy(base, config)
            e_picc = system_energy(picc, config, sequential_way_search=True)
            for name, bd in ((BASELINE, e_base), ("Piccolo", e_picc)):
                row = {
                    "algorithm": algorithm,
                    "dataset": dataset,
                    "system": name,
                    "total_norm": bd.total / e_base.total,
                }
                row.update(
                    {k: v / e_base.total for k, v in bd.as_dict().items()}
                )
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 15 -- memory-type sensitivity (SW dataset)
# ---------------------------------------------------------------------------
MEMORY_TYPES = (
    ("DDR4x4", "DDR4_2400_x4"),
    ("DDR4x8", "DDR4_2400_x8"),
    ("DDR4x16", "DDR4_2400_x16"),
    ("LPDDR4", "LPDDR4_3200"),
    ("GDDR5", "GDDR5_6000"),
    ("HBM", "HBM2_2000"),
)


def figure_15(
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    dataset: str = "SW",
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(
                system=s, algorithm=a, dataset=dataset, scale=scale,
                dram_config=DRAMConfig(
                    spec=DEVICES[device], channels=1, ranks=4
                ),
            )
            for a in algorithms for _, device in MEMORY_TYPES
            for s in (BASELINE, "Piccolo")
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for algorithm in algorithms:
        for label, device in MEMORY_TYPES:
            config = DRAMConfig(spec=DEVICES[device], channels=1, ranks=4)
            for system in (BASELINE, "Piccolo"):
                result = run_system(
                    system, algorithm, dataset, scale=scale,
                    dram_config=config,
                )
                rows.append(
                    {
                        "algorithm": algorithm,
                        "memory": label,
                        "system": system,
                        "cycles": result.cycles,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Fig. 16 -- channel/rank sensitivity (SW dataset)
# ---------------------------------------------------------------------------
def figure_16(
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    dataset: str = "SW",
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(
                system=s, algorithm=a, dataset=dataset, scale=scale,
                dram_config=DRAMConfig(
                    spec=DEVICES["DDR4_2400_x16"],
                    channels=channels, ranks=ranks,
                ),
            )
            for a in algorithms
            for channels in (1, 2) for ranks in (1, 2, 4)
            for s in (BASELINE, "Piccolo")
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for algorithm in algorithms:
        for channels in (1, 2):
            for ranks in (1, 2, 4):
                config = DRAMConfig(
                    spec=DEVICES["DDR4_2400_x16"],
                    channels=channels, ranks=ranks,
                )
                for system in (BASELINE, "Piccolo"):
                    result = run_system(
                        system, algorithm, dataset, scale=scale,
                        dram_config=config,
                    )
                    rows.append(
                        {
                            "algorithm": algorithm,
                            "channels": channels,
                            "ranks": ranks,
                            "system": system,
                            "cycles": result.cycles,
                        }
                    )
    return rows


# ---------------------------------------------------------------------------
# Fig. 17 -- tile-size sensitivity (SW dataset)
# ---------------------------------------------------------------------------
def figure_17(
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    dataset: str = "SW",
    scales: Sequence[int] = (1, 2, 4, 8, 16),
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(
                system=s, algorithm=a, dataset=dataset, scale=scale,
                tile_scale=scale_factor,
            )
            for a in algorithms for scale_factor in scales
            for s in (BASELINE, "Piccolo")
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for algorithm in algorithms:
        base_ns = None
        for scale_factor in scales:
            for system in (BASELINE, "Piccolo"):
                result = run_system(
                    system, algorithm, dataset, scale=scale,
                    tile_scale=scale_factor,
                )
                if system == BASELINE and scale_factor == scales[0]:
                    base_ns = result.total_ns
                rows.append(
                    {
                        "algorithm": algorithm,
                        "scale": scale_factor,
                        "system": system,
                        "norm_cycles": result.total_ns / base_ns,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Fig. 18 -- synthetic graphs (PR)
# ---------------------------------------------------------------------------
def figure_18(
    datasets: Sequence[str] = SYNTHETIC,
    systems: Sequence[str] = (
        "GraphDyns (SPM)", BASELINE, "NMP", "PIM", "Piccolo",
    ),
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(system=s, algorithm="PR", dataset=d, scale=scale)
            for d in datasets for s in dict.fromkeys((BASELINE, *systems))
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for dataset in datasets:
        base = run_system(BASELINE, "PR", dataset, scale=scale)
        for system in systems:
            result = (
                base if system == BASELINE
                else run_system(system, "PR", dataset, scale=scale)
            )
            rows.append(
                {
                    "dataset": dataset,
                    "system": system,
                    "speedup": base.total_ns / result.total_ns,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 19a -- edge-centric vs vertex-centric (PR)
# ---------------------------------------------------------------------------
def figure_19a(
    datasets: Sequence[str] = REAL_WORLD,
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    # Only the vertex-centric half of the grid goes through run_system;
    # the edge-centric systems are constructed inline below and run
    # serially either way.
    _sweep(
        [
            CellSpec(system=s, algorithm="PR", dataset=d, scale=scale)
            for d in datasets for s in (BASELINE, "Piccolo")
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, scale.scale_shift)
        iters = scale.iterations_for("PR")
        vc_base = run_system(BASELINE, "PR", dataset, scale=scale)
        vc_picc = run_system("Piccolo", "PR", dataset, scale=scale)
        ec_base = ECConventionalSystem(
            onchip_bytes=scale.baseline_cache_bytes
        ).run(graph, "PR", max_iterations=iters)
        ec_picc = ECPiccoloSystem(
            onchip_bytes=scale.piccolo_cache_bytes,
            mshr_entries=scale.mshr_entries,
            fg_tag_bits=scale.fg_tag_bits,
            replay_capacity=scale.replay_capacity,
        ).run(graph, "PR", max_iterations=iters)
        for label, result in (
            ("VC Conven.", vc_base),
            ("VC Piccolo", vc_picc),
            ("EC Conven.", ec_base),
            ("EC Piccolo", ec_picc),
        ):
            rows.append(
                {
                    "dataset": dataset,
                    "system": label,
                    "speedup": vc_base.total_ns / result.total_ns,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 19b -- OLAP queries
# ---------------------------------------------------------------------------
def figure_19b(num_rows: int = 1 << 16) -> list[dict]:
    return [
        {"query": name, "speedup": speedup}
        for name, speedup in query_speedups(num_rows).items()
    ]


# ---------------------------------------------------------------------------
# Fig. 20a -- enhanced designs for DDR4x4 and HBM
# ---------------------------------------------------------------------------
def figure_20a(
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    dataset: str = "SW",
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    cases = (
        ("x4", DEVICES["DDR4_2400_x4"], {"offset_bits": 11}),
        ("HBM", DEVICES["HBM2_2000"], {"long_burst_fim": True}),
    )
    specs = []
    for algorithm in algorithms:
        for _, device, enhancement in cases:
            base_cfg = DRAMConfig(spec=device, channels=1, ranks=4)
            enh_cfg = DRAMConfig(spec=device, channels=1, ranks=4,
                                 **enhancement)
            specs += [
                CellSpec(system=BASELINE, algorithm=algorithm,
                         dataset=dataset, scale=scale, dram_config=base_cfg),
                CellSpec(system="Piccolo", algorithm=algorithm,
                         dataset=dataset, scale=scale, dram_config=base_cfg),
                CellSpec(system="Piccolo", algorithm=algorithm,
                         dataset=dataset, scale=scale, dram_config=enh_cfg),
            ]
    _sweep(specs, workers=workers, resume=resume,
           checkpoint_dir=checkpoint_dir)
    rows = []
    for algorithm in algorithms:
        for label, device, enhancement in cases:
            base_cfg = DRAMConfig(spec=device, channels=1, ranks=4)
            enh_cfg = DRAMConfig(spec=device, channels=1, ranks=4, **enhancement)
            base = run_system(BASELINE, algorithm, dataset, scale=scale,
                              dram_config=base_cfg)
            picc = run_system("Piccolo", algorithm, dataset, scale=scale,
                              dram_config=base_cfg)
            enh = run_system("Piccolo", algorithm, dataset, scale=scale,
                             dram_config=enh_cfg)
            for system, result in (
                (BASELINE, base), ("Piccolo", picc), ("Piccolo enhanced", enh),
            ):
                rows.append(
                    {
                        "algorithm": algorithm,
                        "memory": label,
                        "system": system,
                        "speedup": base.total_ns / result.total_ns,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Fig. 20b -- prefetching disabled
# ---------------------------------------------------------------------------
def figure_20b(
    datasets: Sequence[str] = REAL_WORLD,
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    _sweep(
        [
            CellSpec(system="Piccolo", algorithm="PR", dataset=d,
                     scale=scale, pipeline=pipe)
            for d in datasets
            for pipe in (None, PipelineConfig(prefetch=False))
        ],
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for dataset in datasets:
        with_pf = run_system("Piccolo", "PR", dataset, scale=scale)
        without = run_system(
            "Piccolo", "PR", dataset, scale=scale,
            pipeline=PipelineConfig(prefetch=False),
        )
        rows.append(
            {
                "dataset": dataset,
                "norm_perf_with": 1.0,
                "norm_perf_without": with_pf.total_ns / without.total_ns,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Pretty-printing helper used by the benchmark harness
# ---------------------------------------------------------------------------
def format_rows(title: str, rows: list[dict]) -> str:
    """Render rows as an aligned text table (one line per row)."""
    lines = [f"\n=== {title} ==="]
    if not rows:
        lines.append("(no rows)")
        return "\n".join(lines)
    keys = list(rows[0].keys())
    lines.append("  ".join(f"{k:>14s}" for k in keys))
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key, "")
            if isinstance(value, float):
                cells.append(f"{value:>14.3f}")
            else:
                cells.append(f"{str(value):>14s}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def print_rows(title: str, rows: list[dict]) -> None:
    """Print :func:`format_rows` output (kept for script/example use)."""
    print(format_rows(title, rows))
