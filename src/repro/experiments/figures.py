"""One runner per evaluation figure/table of the paper.

Each ``figure_*`` function regenerates the corresponding figure's data as
a list of row dicts (the benchmark harness prints them).  All runners are
deterministic; dataset sizes and capacities come from
:class:`~repro.experiments.config.ExperimentScale`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.accel.pipeline import PipelineConfig
from repro.accel.systems import SYSTEM_ORDER
from repro.algorithms import ALGORITHM_ORDER
from repro.cache.variants import FIG11_DESIGNS
from repro.dram.spec import DEVICES, DRAMConfig
from repro.energy.accel_energy import system_energy
from repro.experiments import parallel
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.runner import CellSpec
from repro.graph.datasets import REAL_WORLD, SYNTHETIC, load_dataset
from repro.olap.queries import query_speedups
from repro.utils.stats import geometric_mean
from repro.validate import microbench

BASELINE = "GraphDyns (Cache)"


def _run_grid(
    cells: dict,
    *,
    workers: int | None,
    resume: bool,
    checkpoint_dir=None,
) -> dict:
    """Run a figure's cells -- a dict from row key to :class:`CellSpec`
    -- through one :func:`parallel.run_cells` call and map each key to
    its :class:`~repro.accel.base.SystemResult`.

    Up to one worker runs the cells serially in this process, through
    the result memo; more shard them across worker processes.  With a
    ``checkpoint_dir`` every cell is checkpointed, and ``resume`` (whose
    directory defaults to :data:`parallel.DEFAULT_CHECKPOINT_DIR`)
    loads finished cells instead of simulating them.  Results are
    bit-identical either way.
    """
    if resume and checkpoint_dir is None:
        checkpoint_dir = parallel.DEFAULT_CHECKPOINT_DIR
    outcomes = parallel.run_cells(
        cells.values(), workers=workers, resume=resume,
        checkpoint_dir=checkpoint_dir,
    )
    return {key: outcome.result for key, outcome in zip(cells, outcomes)}


# ---------------------------------------------------------------------------
# Fig. 3 -- motivational: useful vs unuseful traffic, non-tiling vs perfect
# ---------------------------------------------------------------------------
def figure_3(
    datasets: Sequence[str] = ("TW", "SW", "FS"),
    scale: ExperimentScale = DEFAULT_SCALE,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir=None,
) -> list[dict]:
    # Perfect tiling is tile scale 1; a tile scale of |V| is one tile.
    cells = {}
    for dataset in datasets:
        vertices = load_dataset(dataset, scale.scale_shift).num_vertices
        for mode, tile_scale in (
            ("Non-Tiling", vertices), ("Perfect Tiling", 1),
        ):
            cells[dataset, mode] = CellSpec(
                BASELINE, "BFS", dataset, scale=scale, tile_scale=tile_scale
            )
    results = _run_grid(
        cells, workers=workers, resume=resume, checkpoint_dir=checkpoint_dir
    )
    rows = []
    for (dataset, mode), result in results.items():
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
    results = _run_grid(
        {
            (a, d, s): CellSpec(s, a, d, scale=scale)
            for a in algorithms for d in datasets
            for s in dict.fromkeys((BASELINE, *systems))
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    speedups_by_system: dict[str, list[float]] = {s: [] for s in systems}
    for algorithm in algorithms:
        for dataset in datasets:
            base = results[algorithm, dataset, BASELINE]
            for system in systems:
                result = results[algorithm, dataset, system]
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
    cells = {
        (a, d, None): CellSpec(BASELINE, a, d, scale=scale)
        for a in algorithms for d in datasets
    }
    cells.update(
        ((a, d, design), CellSpec("Piccolo", a, d, scale=scale,
                                  cache_design=design))
        for a in algorithms for d in datasets for design in designs
    )
    results = _run_grid(
        cells, workers=workers, resume=resume, checkpoint_dir=checkpoint_dir
    )
    rows = []
    speedups: dict[str, list[float]] = {d: [] for d in designs}
    for algorithm in algorithms:
        for dataset in datasets:
            base = results[algorithm, dataset, None]
            for design in designs:
                result = results[algorithm, dataset, design]
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
    results = _run_grid(
        {
            (a, d, s): CellSpec(s, a, d, scale=scale)
            for a in algorithms for d in datasets
            for s in (BASELINE, "Piccolo")
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for algorithm in algorithms:
        for dataset in datasets:
            base = results[algorithm, dataset, BASELINE]
            base_total = base.dram.read_bursts + base.dram.write_bursts
            for name in (BASELINE, "Piccolo"):
                result = results[algorithm, dataset, name]
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
    results = _run_grid(
        {
            (a, d, s): CellSpec(s, a, d, scale=scale)
            for a in algorithms for d in datasets for s in systems
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    return [
        {
            "algorithm": algorithm,
            "dataset": dataset,
            "system": system,
            "offchip_gbps": result.offchip_bandwidth_gbps,
            "internal_gbps": result.internal_bandwidth_gbps,
        }
        for (algorithm, dataset, system), result in results.items()
    ]


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
    results = _run_grid(
        {
            (a, d, s): CellSpec(s, a, d, scale=scale)
            for a in algorithms for d in datasets
            for s in (BASELINE, "Piccolo")
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    config = scale.dram()
    for algorithm in algorithms:
        for dataset in datasets:
            e_base = system_energy(results[algorithm, dataset, BASELINE], config)
            e_picc = system_energy(
                results[algorithm, dataset, "Piccolo"], config,
                sequential_way_search=True,
            )
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
    results = _run_grid(
        {
            (a, label, s): CellSpec(
                s, a, dataset, scale=scale,
                dram_config=DRAMConfig(
                    spec=DEVICES[device], channels=1, ranks=4
                ),
            )
            for a in algorithms for label, device in MEMORY_TYPES
            for s in (BASELINE, "Piccolo")
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    return [
        {
            "algorithm": algorithm,
            "memory": label,
            "system": system,
            "cycles": result.cycles,
        }
        for (algorithm, label, system), result in results.items()
    ]


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
    results = _run_grid(
        {
            (a, channels, ranks, s): CellSpec(
                s, a, dataset, scale=scale,
                dram_config=DRAMConfig(
                    spec=DEVICES["DDR4_2400_x16"],
                    channels=channels, ranks=ranks,
                ),
            )
            for a in algorithms
            for channels in (1, 2) for ranks in (1, 2, 4)
            for s in (BASELINE, "Piccolo")
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    return [
        {
            "algorithm": algorithm,
            "channels": channels,
            "ranks": ranks,
            "system": system,
            "cycles": result.cycles,
        }
        for (algorithm, channels, ranks, system), result in results.items()
    ]


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
    results = _run_grid(
        {
            (a, scale_factor, s): CellSpec(
                s, a, dataset, scale=scale, tile_scale=scale_factor,
            )
            for a in algorithms for scale_factor in scales
            for s in (BASELINE, "Piccolo")
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    rows = []
    for (algorithm, scale_factor, system), result in results.items():
        base_ns = results[algorithm, scales[0], BASELINE].total_ns
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
    results = _run_grid(
        {
            (d, s): CellSpec(s, "PR", d, scale=scale)
            for d in datasets for s in dict.fromkeys((BASELINE, *systems))
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    return [
        {
            "dataset": dataset,
            "system": system,
            "speedup": (
                results[dataset, BASELINE].total_ns
                / results[dataset, system].total_ns
            ),
        }
        for dataset in datasets for system in systems
    ]


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
    bars = (
        ("VC Conven.", BASELINE),
        ("VC Piccolo", "Piccolo"),
        ("EC Conven.", "EC Conventional"),
        ("EC Piccolo", "EC Piccolo"),
    )
    results = _run_grid(
        {
            (d, label): CellSpec(system, "PR", d, scale=scale)
            for d in datasets for label, system in bars
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    return [
        {
            "dataset": dataset,
            "system": label,
            "speedup": (
                results[dataset, "VC Conven."].total_ns / result.total_ns
            ),
        }
        for (dataset, label), result in results.items()
    ]


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
    cells = {}
    for algorithm in algorithms:
        for label, device, enhancement in cases:
            base_cfg = DRAMConfig(spec=device, channels=1, ranks=4)
            enh_cfg = DRAMConfig(spec=device, channels=1, ranks=4,
                                 **enhancement)
            for system, name, config in (
                (BASELINE, BASELINE, base_cfg),
                ("Piccolo", "Piccolo", base_cfg),
                ("Piccolo", "Piccolo enhanced", enh_cfg),
            ):
                cells[algorithm, label, name] = CellSpec(
                    system, algorithm, dataset, scale=scale,
                    dram_config=config,
                )
    results = _run_grid(
        cells, workers=workers, resume=resume, checkpoint_dir=checkpoint_dir
    )
    return [
        {
            "algorithm": algorithm,
            "memory": label,
            "system": name,
            "speedup": (
                results[algorithm, label, BASELINE].total_ns / result.total_ns
            ),
        }
        for (algorithm, label, name), result in results.items()
    ]


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
    results = _run_grid(
        {
            (d, prefetch): CellSpec(
                "Piccolo", "PR", d, scale=scale,
                pipeline=None if prefetch else PipelineConfig(prefetch=False),
            )
            for d in datasets for prefetch in (True, False)
        },
        workers=workers, resume=resume, checkpoint_dir=checkpoint_dir,
    )
    return [
        {
            "dataset": dataset,
            "norm_perf_with": 1.0,
            "norm_perf_without": (
                results[dataset, True].total_ns
                / results[dataset, False].total_ns
            ),
        }
        for dataset in datasets
    ]


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
