"""Scaled experiment configuration (see docs/EXPERIMENTS.md).

Scale is a first-class, selectable dimension: every capacity-like knob
lives in an :class:`ExperimentScale`, and three named profiles span the
regimes the reproduction runs in (:data:`PROFILES`):

``toy``
    The historical defaults: the paper's datasets are ~2^12 larger than
    the stand-ins, so every capacity-like parameter scales by the same
    factor to keep the dimensionless ratios (cache bytes / vertex bytes,
    MSHR entries / cache lines, tile width / cache capacity) in the
    paper's regime.  Every figure benchmark and the tier-1 suite run at
    this scale; its outputs are bit-identical to the pre-profile
    implementation.
``mid``
    A ~2^6 reduction: 64 KB caches, 512-entry MSHR rows, 6 fg-tag bits,
    hundred-thousand-edge graphs.  Large enough that Piccolo tiles span
    more than one memory-path chunk, small enough for a CI smoke under
    a wall-clock budget.
``paper``
    The paper's actual on-chip regime: 4 MB caches, 4.5 MB SPM
    baselines, 4096 MSHR row entries, 8 fg-tag bits (32 KB windows),
    million-edge graphs (``scale_shift=5``).  Runnable on one machine
    because every profile streams each tile in bounded chunks
    (:data:`repro.utils.units.CHUNK_ACCESSES`) instead of materialising
    whole-tile event arrays.

Knob table (dataset ``scale_shift`` of ``None`` keeps each dataset
spec's default, which is the 2^12 toy reduction):

================  ===============  =========  =========  ==========
quantity          paper            toy        mid        paper prof.
================  ===============  =========  =========  ==========
on-chip cache     4 MB             1 KB       64 KB      4 MB
baseline SPM      4.5 MB           1.125 KB   72 KB      4.5 MB
MSHR row entries  4096             64         512        4096
fg-tag bits       8 (32 KB window) 4 (2 KB)   6 (8 KB)   8 (32 KB)
graph reduction   --               2^12       2^6        2^5
DRAM timing/row   DDR4-2400R       unchanged  unchanged  unchanged
================  ===============  =========  =========  ==========

The toy cache scale preserves the paper's *tile-count* regime: perfect
tiling slices TW into ~80 tiles, SW into ~41, PP into ~217 -- within a
few percent of the paper's t = dataset-bytes / 4 MB for every dataset,
so the locality-vs-repetition trade-off sits where the paper's does.
The paper profile reaches the same tile counts from the other end
(full-size caches over million-edge graphs).

DRAM device parameters are *not* scaled in any profile: rows are always
8 KB and bursts 64 B, so the fine-grained-access economics FIM exploits
are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.dram.spec import DRAMConfig, default_config


def _default_iterations() -> dict:
    return {"PR": 3, "BFS": 40, "CC": 12, "SSSP": 12, "SSWP": 12}


def _default_tile_scales() -> dict:
    return {
        "Graphicionado": 1,
        "GraphDyns (SPM)": 1,
        "GraphDyns (Cache)": 1,
        "NMP": 4,
        "PIM": 1,
        "Piccolo": 4,
    }


@dataclass(frozen=True)
class ExperimentScale:
    """Capacity and iteration-cap knobs shared by every figure."""

    #: profile name (``toy`` / ``mid`` / ``paper`` for the registry
    #: entries; custom instances may use any label)
    name: str = "toy"
    piccolo_cache_bytes: int = 1024
    baseline_cache_bytes: int = 1024
    spm_bytes: int = 1152  # the paper gives SPM baselines 4.5 MB vs 4 MB
    cache_ways: int = 8
    fg_tag_bits: int = 4
    mshr_entries: int = 64
    #: dataset size reduction (2**shift); None keeps each dataset spec's
    #: default (the 2^12 toy reduction)
    scale_shift: int | None = None
    #: where :class:`~repro.graph.partition.TiledCSR` keeps its sorted
    #: tile arrays: ``"memory"`` (global in-RAM argsort, tiles resident
    #: for the run) or ``"disk"`` (bucketed external sort into a
    #: memmapped tile store, O(chunk) build RSS, tiles paged on demand).
    #: Results are bit-identical either way, so the knob is *not* part
    #: of a cell's canonical digest.
    tile_backing: str = "memory"
    #: tile-store directory for ``tile_backing="disk"``; None uses
    #: :func:`repro.graph.tilestore.default_root` (REPRO_TILE_STORE env
    #: var, then a per-process temp dir)
    tile_store_root: str | None = None
    #: per-algorithm iteration caps (PR iterations are identical in cost,
    #: so a short run preserves every ratio; the paper caps at 40)
    max_iterations: dict = field(default_factory=_default_iterations)
    #: default tile scales (multiples of the perfect width) per system;
    #: chosen by tuner sweeps (see docs/EXPERIMENTS.md) to avoid re-tuning in
    #: every benchmark run
    tile_scales: dict = field(default_factory=_default_tile_scales)

    def iterations_for(self, algorithm: str) -> int:
        return self.max_iterations.get(algorithm, 40)

    def dram(self, **overrides) -> DRAMConfig:
        return default_config(**overrides)

    def describe(self) -> dict:
        """Flat knob dict (CLI ``profiles`` listing, docs)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("max_iterations", "tile_scales")
        }


#: The named profiles.  ``toy`` must stay exactly the dataclass
#: defaults so unprofiled callers and ``--profile toy`` are
#: bit-identical.
PROFILES: dict[str, ExperimentScale] = {
    "toy": ExperimentScale(),
    "mid": ExperimentScale(
        name="mid",
        piccolo_cache_bytes=64 * 1024,
        baseline_cache_bytes=64 * 1024,
        spm_bytes=72 * 1024,
        fg_tag_bits=6,
        mshr_entries=512,
        scale_shift=6,
    ),
    "paper": ExperimentScale(
        name="paper",
        piccolo_cache_bytes=4 * 1024 * 1024,
        baseline_cache_bytes=4 * 1024 * 1024,
        spm_bytes=4_718_592,  # 4.5 MB
        fg_tag_bits=8,
        mshr_entries=4096,
        scale_shift=5,
    ),
}

DEFAULT_SCALE = PROFILES["toy"]


def get_profile(scale: ExperimentScale | str) -> ExperimentScale:
    """Resolve a profile name (or pass an explicit scale through)."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return PROFILES[scale]
    except KeyError:
        raise KeyError(
            f"unknown scale profile {scale!r}; available: {sorted(PROFILES)}"
        ) from None
