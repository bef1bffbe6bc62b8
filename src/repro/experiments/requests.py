"""Experiment-request adapter: JSON config -> canonical resolved cell.

The experiment service (:mod:`repro.service`) accepts plain-JSON
configs over HTTP; :func:`resolve_request` is the single place those
configs become :class:`~repro.experiments.runner.CellSpec` values and
pick up their canonical digest.  The adapter is deliberately strict --
unknown keys, wrong types, and unregistered names are
:class:`RequestError`\\ s (HTTP 400s), never silent defaults -- because
the digest is the cache key: a request that "almost" names a cell must
not silently collide with (or miss) the cell the caller meant.

Every accepted request is digestable by construction: the JSON surface
can only express primitive knobs (no ``cache_factory`` callables, the
one thing that makes a :class:`CellSpec` undigestable), so the service
can always content-address the result.  Fig. 11 cache variants enter
through the picklable ``cache_design`` registry spelling instead.

Dataset seeds are not a request knob: every dataset in the registry is
a *seeded, deterministic* stand-in (see ``repro/graph/datasets.py``),
so ``(dataset, scale_shift)`` fully pins the graph and the seed is part
of the dataset's identity, not the request's.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.experiments.runner import CellSpec, ResolvedCell, resolve_cell


class RequestError(ValueError):
    """An experiment config that cannot name a cell (HTTP 400)."""


#: request key -> (accepted types, human-readable description).
#: bool is checked before int everywhere below because bool is an int
#: subclass and a JSON ``true`` must not pass as an iteration count.
REQUEST_FIELDS: dict[str, tuple[tuple[type, ...], str]] = {
    "system": ((str,), "accelerator system name (required)"),
    "algorithm": ((str,), "vertex algorithm, e.g. PR / BFS (required)"),
    "dataset": ((str,), "dataset registry key, e.g. TW (required)"),
    "profile": ((str,), "scale profile name (default: toy)"),
    "cache_design": ((str,), "Fig. 11 fine-grained cache variant"),
    "max_iterations": ((int,), "iteration cap override"),
    "scale_shift": ((int,), "dataset 2**shift reduction override"),
    "tile_scale": ((int,), "tile-width multiple override"),
    "tile_backing": ((str,), 'tile backing: "memory" or "disk"'),
}

_REQUIRED = ("system", "algorithm", "dataset")
_POSITIVE = ("max_iterations", "tile_scale")


def _check_registries(payload: Mapping[str, Any]) -> None:
    """Eager name validation so bad requests 400 instead of 500."""
    from repro.accel.systems import FINE_GRAINED_SYSTEMS, SYSTEMS
    from repro.algorithms import ALGORITHMS
    from repro.cache.variants import FIG11_DESIGNS
    from repro.experiments.config import PROFILES
    from repro.graph.datasets import DATASETS

    system = payload["system"]
    if system not in SYSTEMS:
        raise RequestError(
            f"unknown system {system!r}; available: {sorted(SYSTEMS)}"
        )
    algorithm = payload["algorithm"]
    if algorithm not in ALGORITHMS:
        raise RequestError(
            f"unknown algorithm {algorithm!r}; "
            f"available: {sorted(ALGORITHMS)}"
        )
    dataset = payload["dataset"]
    if dataset not in DATASETS:
        raise RequestError(
            f"unknown dataset {dataset!r}; available: {sorted(DATASETS)}"
        )
    profile = payload.get("profile", "toy")
    if profile not in PROFILES:
        raise RequestError(
            f"unknown profile {profile!r}; available: {sorted(PROFILES)}"
        )
    design = payload.get("cache_design")
    if design is not None and design not in FIG11_DESIGNS:
        raise RequestError(
            f"unknown cache_design {design!r}; "
            f"available: {list(FIG11_DESIGNS)}"
        )
    if design is not None and system not in FINE_GRAINED_SYSTEMS:
        raise RequestError(
            f"cache_design needs a fine-grained cache system, one of "
            f"{list(FINE_GRAINED_SYSTEMS)}; {system!r} has none"
        )
    backing = payload.get("tile_backing")
    if backing is not None and backing not in ("memory", "disk"):
        raise RequestError(
            f"unknown tile_backing {backing!r}; "
            f"available: ['memory', 'disk']"
        )


def resolve_request(payload: object) -> ResolvedCell:
    """Validate a JSON experiment config and resolve it to a cell.

    Raises :class:`RequestError` with a self-describing message for any
    malformed config.  The returned cell always carries a canonical
    digest (the service's cache key).
    """
    if not isinstance(payload, Mapping):
        raise RequestError(
            "experiment config must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(REQUEST_FIELDS))
    if unknown:
        raise RequestError(
            f"unknown config key(s) {unknown}; "
            f"accepted: {sorted(REQUEST_FIELDS)}"
        )
    missing = [key for key in _REQUIRED if key not in payload]
    if missing:
        raise RequestError(f"missing required config key(s) {missing}")
    for key, (types, description) in REQUEST_FIELDS.items():
        if key not in payload:
            continue
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, types):
            expected = "/".join(t.__name__ for t in types)
            raise RequestError(
                f"config key {key!r} must be {expected} "
                f"({description}), got {value!r}"
            )
    for key in _POSITIVE:
        if key in payload and payload[key] < 1:
            raise RequestError(
                f"config key {key!r} must be >= 1, got {payload[key]!r}"
            )
    if "scale_shift" in payload and payload["scale_shift"] < 0:
        raise RequestError(
            f"config key 'scale_shift' must be >= 0, "
            f"got {payload['scale_shift']!r}"
        )
    _check_registries(payload)
    spec = CellSpec(
        system=payload["system"],
        algorithm=payload["algorithm"],
        dataset=payload["dataset"],
        scale=payload.get("profile", "toy"),
        max_iterations=payload.get("max_iterations"),
        scale_shift=payload.get("scale_shift"),
        cache_design=payload.get("cache_design"),
        tile_scale=payload.get("tile_scale"),
        tile_backing=payload.get("tile_backing"),
    )
    cell = resolve_cell(spec)
    # Unreachable through the JSON surface (no callables can enter),
    # but the service's cache contract depends on it, so assert loudly.
    if cell.digest is None:
        raise RequestError("config does not canonicalize to a cell digest")
    return cell


def describe_cell(cell: ResolvedCell) -> dict:
    """JSON-safe identity summary of a resolved cell (status payloads)."""
    return {
        "system": cell.system,
        "algorithm": cell.algorithm,
        "dataset": cell.dataset,
        "shift": cell.shift,
        "max_iterations": cell.max_iterations,
        "scale": (
            cell.spec.scale if isinstance(cell.spec.scale, str)
            else cell.spec.scale.name
        ),
        "cache_design": cell.spec.cache_design,
    }


__all__ = [
    "REQUEST_FIELDS",
    "RequestError",
    "describe_cell",
    "resolve_request",
]
