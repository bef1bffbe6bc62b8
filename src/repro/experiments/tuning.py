"""Tile-width tuning results (Sec. VII-A's exhaustive search).

The paper tunes every baseline's tile width by exhaustive search.  Doing
that inside every benchmark run would multiply their cost by the sweep
size, so the search is performed offline by
``tools/generate_tuning_table.py`` (which sweeps power-of-two multiples
of the perfect tile width with :func:`repro.accel.tuner.tune_tile_scale`)
and the winners are baked into the committed ``tuning_table.py``.
``tile_scale_for`` returns None for unswept cells, which then use the
per-system defaults in :class:`~repro.experiments.config.ExperimentScale`.
"""

from __future__ import annotations

from repro.experiments.tuning_table import TUNED_TILE_SCALES


def tile_scale_for(system: str, algorithm: str, dataset: str) -> int | None:
    """Best-known tile scale for a grid cell, or None if never swept."""
    return TUNED_TILE_SCALES.get((system, algorithm, dataset))
