"""Run orchestration: build a system, run a workload, tabulate speedups.

A grid cell is described by a :class:`CellSpec` -- a pure, picklable
value object -- and resolved into concrete system kwargs by
:func:`resolve_cell`.  The split exists for the process-pool sweep
runner (:mod:`repro.experiments.parallel`): workers receive specs, not
module state, and every cell has one canonical digest
(:attr:`ResolvedCell.digest`) that keys *both* the in-process result
memo and the on-disk sweep checkpoints, so the two caches can never
disagree about what a cell is.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.accel.base import SystemResult
from repro.accel.pipeline import PipelineConfig
from repro.accel.systems import SYSTEMS, SYSTEM_ORDER, make_system
from repro.dram.spec import DRAMConfig
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale, get_profile
from repro.experiments.tuning import tile_scale_for
from repro.graph.datasets import load_dataset, resolve_shift
from repro.utils.stats import geometric_mean

#: make_system kwargs excluded from the canonical cell digest.
#: ``cache_factory`` is excluded because ``cache_design`` already names
#: it canonically.  The others change how a cell runs, never its
#: result: disk-backed tiles are bit-identical to in-memory ones (pinned
#: by the tilestore differential suite), so memo hits and sweep
#: checkpoints are deliberately shared across them.
_NON_SEMANTIC_KEYS = (
    "cache_factory",
    "tile_backing",
    "tile_store_root",
)

#: bound on the completed-run memo.  Results are a few hundred bytes of
#: scalars each, but an unbounded dict pinned every run of a long figure
#: session forever; 256 comfortably holds the largest single figure
#: sweep (Fig. 11: 200 cells) while staying a bound.
RESULT_CACHE_MAXSIZE = 256


class _ResultCache:
    """LRU memo of completed runs, keyed by canonical cell digest.

    The figure benches share many grid cells (results are deterministic,
    so reuse is sound); the bound keeps a long session from pinning
    every result forever.
    """

    def __init__(self, maxsize: int = RESULT_CACHE_MAXSIZE) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[str, SystemResult] = OrderedDict()

    def get(self, digest: str) -> SystemResult | None:
        result = self._entries.get(digest)
        if result is not None:
            self._entries.move_to_end(digest)
        return result

    def put(self, digest: str, result: SystemResult) -> None:
        self._entries[digest] = result
        self._entries.move_to_end(digest)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries


_RESULT_CACHE = _ResultCache()


def clear_result_cache() -> None:
    """Drop memoised runs (tests use this to force fresh simulations)."""
    _RESULT_CACHE.clear()


def install_result(digest: str, result: SystemResult) -> None:
    """Seed the result memo with an externally produced run.

    The parallel sweep runner installs worker/checkpoint results here so
    later serial runs of the same cells (``run_system``, another figure
    sharing them) hit the memo instead of re-simulating.
    """
    _RESULT_CACHE.put(digest, result)


def cached_result(digest: str) -> SystemResult | None:
    """Memoised result for a cell digest, or None on a miss.

    Public read side of the memo: the experiment service probes it
    before touching the on-disk checkpoint store or enqueuing a run.
    """
    return _RESULT_CACHE.get(digest)


# ---------------------------------------------------------------------------
# Cell specification and resolution
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One (system, algorithm, dataset) cell of the evaluation grid.

    Pure data: every field is a value (profiles may be passed by name),
    so a spec pickles cleanly to pool workers.  ``cache_design`` selects
    a Fig. 11 fine-grained cache by registry name
    (:data:`repro.cache.variants.FIG11_DESIGNS`) -- the picklable
    alternative to passing a ``cache_factory`` callable through
    ``system_kwargs``.
    """

    system: str
    algorithm: str
    dataset: str
    scale: ExperimentScale | str = "toy"
    dram_config: DRAMConfig | None = None
    pipeline: PipelineConfig | None = None
    tile_scale: int | None = None
    max_iterations: int | None = None
    scale_shift: int | None = None
    cache_design: str | None = None
    #: tile-array backing override (``"memory"``/``"disk"``); None takes
    #: the profile's ``tile_backing``.  Not part of the cell digest:
    #: results are bit-identical across backings by construction, so
    #: memo/checkpoint entries are shared between them.
    tile_backing: str | None = None
    #: extra ``make_system`` overrides as sorted ``(key, value)`` pairs;
    #: non-primitive values (e.g. cache factories) are allowed but make
    #: the cell undigestable (uncacheable, uncheckpointable)
    system_kwargs: tuple = ()


@dataclass
class ResolvedCell:
    """A spec resolved against its profile: ready-to-run kwargs plus the
    canonical digest.  Not picklable in general (``make_kwargs`` may
    hold a cache factory); workers re-resolve from the spec."""

    spec: CellSpec
    system: str
    algorithm: str
    dataset: str
    #: actual dataset reduction (profile/spec default already applied)
    shift: int
    max_iterations: int
    make_kwargs: dict
    #: canonical cell digest (32 hex chars), or None when the cell holds
    #: non-canonical overrides and cannot be keyed
    digest: str | None


def _canonical_token(value) -> str | None:
    """Deterministic text form of a digestable value, or None.

    Frozen config dataclasses are digestable through their field reprs;
    arbitrary callables/objects are not (their reprs carry addresses).
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        # repro-lint: disable=RL001 -- primitive reprs are canonical (float
        # repr is shortest-roundtrip, stable across CPython >= 3.1)
        return repr(value)
    if isinstance(value, (DRAMConfig, PipelineConfig)):
        # repro-lint: disable=RL001 -- frozen dataclasses repr their fields
        # in declaration order; fields are primitives (checked above rule)
        return repr(value)
    if isinstance(value, tuple):
        tokens = [_canonical_token(item) for item in value]
        if any(t is None for t in tokens):
            return None
        return "(" + ",".join(tokens) + ")"
    return None


def _digest_parts(parts: list[bytes]) -> str:
    """blake2b-16 over ordered, NUL-separated parts (the cell identity)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def resolve_cell(spec: CellSpec) -> ResolvedCell:
    """Resolve a :class:`CellSpec` against its scale profile.

    Capacities and iteration caps come from the profile -- each system
    class names the profile fields its constructor takes
    (``onchip_field``, ``scale_fields``) -- the toy tuning table
    supplies tuned tile scales, and per-spec overrides win over profile
    values.  The resolved cell carries everything a worker needs -- no
    module-global state.
    """
    scale = get_profile(spec.scale)
    try:
        cls = SYSTEMS[spec.system]
    except KeyError:
        raise KeyError(
            f"unknown system {spec.system!r}; available: {sorted(SYSTEMS)}"
        ) from None
    shift = (
        spec.scale_shift if spec.scale_shift is not None else scale.scale_shift
    )
    shift = resolve_shift(spec.dataset, shift)
    # The offline tuning table was swept at toy scale; other profiles
    # fall back to the profile's, then the class's, default until swept.
    tuned = (
        tile_scale_for(spec.system, spec.algorithm, spec.dataset)
        if scale.name == "toy" else None
    )
    kwargs: dict = dict(
        dram_config=spec.dram_config,
        pipeline=spec.pipeline,
        onchip_bytes=getattr(scale, cls.onchip_field),
        tile_scale=(
            spec.tile_scale if spec.tile_scale is not None
            else tuned
            or scale.tile_scales.get(spec.system, cls.default_tile_scale)
        ),
        tile_backing=(
            spec.tile_backing if spec.tile_backing is not None
            else scale.tile_backing
        ),
        tile_store_root=scale.tile_store_root,
    )
    kwargs.update({name: getattr(scale, name) for name in cls.scale_fields})
    kwargs.update(dict(spec.system_kwargs))
    if spec.cache_design is not None:
        from repro.cache.variants import fig11_cache_factory

        kwargs["cache_factory"] = fig11_cache_factory(
            spec.cache_design,
            ways=scale.cache_ways,
            fg_tag_bits=scale.fg_tag_bits,
        )
    iters = (
        spec.max_iterations if spec.max_iterations is not None
        else scale.iterations_for(spec.algorithm)
    )

    # -- canonical digest over the *resolved* cell ----------------------
    digest_items: list[tuple[str, object]] = [
        ("system", spec.system),
        ("algorithm", spec.algorithm),
        ("dataset", spec.dataset),
        ("shift", shift),
        ("iterations", iters),
        ("cache_design", spec.cache_design),
    ]
    digest_items += sorted(
        (k, v) for k, v in kwargs.items() if k not in _NON_SEMANTIC_KEYS
    )
    # A user-supplied cache_factory (not via cache_design) is part of the
    # cell's identity but has no canonical form: the cell is undigestable.
    digestable = spec.cache_design is not None or "cache_factory" not in kwargs
    digest: str | None = None
    if digestable:
        parts: list[bytes] = [b"cell-v1"]
        for key, value in digest_items:
            token = _canonical_token(value)
            if token is None:
                parts = []
                break
            parts.append(f"{key}={token}".encode())
        if parts:
            digest = _digest_parts(parts)
    return ResolvedCell(
        spec=spec,
        system=spec.system,
        algorithm=spec.algorithm,
        dataset=spec.dataset,
        shift=shift,
        max_iterations=iters,
        make_kwargs=kwargs,
        digest=digest,
    )


def run_resolved(cell: ResolvedCell) -> SystemResult:
    """Run one resolved cell (through the bounded result memo)."""
    if cell.digest is not None:
        hit = _RESULT_CACHE.get(cell.digest)
        if hit is not None:
            return hit
    graph = load_dataset(cell.dataset, cell.shift)
    accel = make_system(cell.system, **cell.make_kwargs)
    result = accel.run(
        graph, cell.algorithm, max_iterations=cell.max_iterations
    )
    if cell.digest is not None:
        _RESULT_CACHE.put(cell.digest, result)
    return result


def run_system(
    system: str,
    algorithm: str,
    dataset: str,
    scale: ExperimentScale | str = DEFAULT_SCALE,
    dram_config: DRAMConfig | None = None,
    pipeline: PipelineConfig | None = None,
    tile_scale: int | None = None,
    max_iterations: int | None = None,
    scale_shift: int | None = None,
    cache_design: str | None = None,
    tile_backing: str | None = None,
    **system_kwargs,
) -> SystemResult:
    """Run one (system, algorithm, dataset) cell of the evaluation grid.

    ``scale`` selects the experiment profile, either as an
    :class:`ExperimentScale` or by name (``"toy"`` / ``"mid"`` /
    ``"paper"``); ``scale_shift`` overrides the profile's dataset
    reduction per call.
    ``cache_design`` substitutes a Fig. 11 fine-grained cache by
    registry name (see :class:`CellSpec`); ``tile_backing`` overrides
    the profile's tile-array backing (``"memory"``/``"disk"``, results
    bit-identical either way).
    """
    spec = CellSpec(
        system=system,
        algorithm=algorithm,
        dataset=dataset,
        scale=scale,
        dram_config=dram_config,
        pipeline=pipeline,
        tile_scale=tile_scale,
        max_iterations=max_iterations,
        scale_shift=scale_shift,
        cache_design=cache_design,
        tile_backing=tile_backing,
        system_kwargs=tuple(sorted(system_kwargs.items())),
    )
    return run_resolved(resolve_cell(spec))


def speedup_table(
    results: dict[tuple[str, str, str], SystemResult],
    baseline: str = "GraphDyns (Cache)",
) -> dict[tuple[str, str, str], float]:
    """Normalise ``results[(system, algo, dataset)].total_ns`` to the
    baseline system's time on the same (algo, dataset)."""
    table: dict[tuple[str, str, str], float] = {}
    for (system, algo, data), result in results.items():
        base = results.get((baseline, algo, data))
        if base is None:
            raise KeyError(f"missing baseline run for ({algo}, {data})")
        if base.total_ns == 0:
            raise ValueError(
                f"baseline {baseline!r} run for ({algo}, {data}) has "
                f"total_ns == 0; speedups cannot be normalised to an "
                f"empty run"
            )
        if result.total_ns == 0:
            raise ValueError(
                f"run ({system}, {algo}, {data}) has total_ns == 0; "
                f"its speedup over the baseline is undefined"
            )
        table[(system, algo, data)] = base.total_ns / result.total_ns
    return table


def geomean_speedups(
    table: dict[tuple[str, str, str], float]
) -> dict[str, float]:
    """Per-system geometric mean across every (algo, dataset) cell."""
    by_system: dict[str, list[float]] = {}
    for (system, _, _), speedup in table.items():
        by_system.setdefault(system, []).append(speedup)
    return {s: geometric_mean(v) for s, v in by_system.items()}


__all__ = [
    "CellSpec",
    "cached_result",
    "ResolvedCell",
    "resolve_cell",
    "run_resolved",
    "run_system",
    "speedup_table",
    "geomean_speedups",
    "SYSTEM_ORDER",
]
