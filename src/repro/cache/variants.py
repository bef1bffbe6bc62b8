"""Registry of the fine-grained cache designs compared in Fig. 11.

The three published designs have full functional models in their own
modules --

- :mod:`repro.cache.amoeba`: variable-granularity blocks with in-array
  tags and a spatial-granularity predictor (Kumar et al., MICRO'12);
- :mod:`repro.cache.scrabble`: merged-block word cache with per-slot
  sub-tags and heavy metadata (Zhang et al., ToC'20);
- :mod:`repro.cache.graphfire`: sectored frames with reuse-predicted
  insertion and stream-aware fills (Manocha et al., ToC'23).

Each is a behavioural model of the property the paper's Fig. 11
analysis attributes to the design (amoeba/graphfire pay effective
capacity for in-array metadata; scrabble matches the 8 B-line cache's
hit behaviour at much higher metadata cost), implemented as a real
cache rather than a scaled approximation.  The paper applied "slight
modifications to get better performance for graph processing"
(Sec. VII-A); these models do the same.

Every design in :data:`FIG11_VARIANTS` (the two published sectored/
8 B-line references included) carries an array-backed ``access_many``
engine (docs/CACHE_ENGINES.md), so the whole Fig. 11 sweep runs on the
batched memory path.  The batched-equivalence suite, the CI variant
smoke, and ``tools/perf_report.py`` all derive their design lists from
this registry, so adding a design here automatically subjects it to
all three.  To plot it, also add its name to :data:`FIG11_DESIGNS`,
the tuple ``figure_11`` plots, in plotting order.
"""

from repro.cache.amoeba import AmoebaCache
from repro.cache.fine8b import EightByteLineCache
from repro.cache.graphfire import GraphfireCache
from repro.cache.scrabble import ScrabbleCache
from repro.cache.sectored import SectoredCache

#: Fig. 11 design name -> cache factory ``(size_bytes, ways) -> cache``.
#: The batched-equivalence suite and ``tools/perf_report.py`` iterate
#: this registry; keep entries in the figure's plotting order.
FIG11_VARIANTS = {
    "Sectored": lambda size, ways=8: SectoredCache(size, ways=ways),
    "Amoeba": lambda size, ways=8: AmoebaCache(size, ways=ways),
    "Scrabble": lambda size, ways=8: ScrabbleCache(size, ways=ways),
    "Graphfire": lambda size, ways=8: GraphfireCache(size, ways=ways),
    "8B-Line": lambda size, ways=8: EightByteLineCache(size, ways=ways),
}

#: Fig. 11 *figure* design list: the five registry variants plus the two
#: Piccolo policy rows, in the figure's plotting order.  These are the
#: names ``CellSpec.cache_design`` accepts -- the picklable way to
#: request a design substitution (a cache factory callable cannot cross
#: a process boundary and has no canonical digest form).
FIG11_DESIGNS = (
    "Sectored",
    "Amoeba",
    "Scrabble",
    "Graphfire",
    "Piccolo (LRU)",
    "Piccolo (RRIP)",
    "8B-Line",
)


def fig11_cache_factory(design: str, *, ways: int = 8, fg_tag_bits: int = 4):
    """``size -> cache`` factory for a named Fig. 11 design.

    ``ways``/``fg_tag_bits`` come from the experiment scale profile
    (``fg_tag_bits`` only applies to the Piccolo policy rows).
    """
    if design in FIG11_VARIANTS:
        variant = FIG11_VARIANTS[design]
        return lambda size: variant(size, ways=ways)
    if design in ("Piccolo (LRU)", "Piccolo (RRIP)"):
        # deferred: core.piccolo_cache imports cache.base/batched, so a
        # module-level import here would be a package-init cycle hazard
        from repro.core.piccolo_cache import PiccoloCache

        policy = "lru" if design == "Piccolo (LRU)" else "rrip"
        return lambda size: PiccoloCache(
            size, ways=ways, fg_tag_bits=fg_tag_bits, policy=policy
        )
    raise KeyError(
        f"unknown Fig. 11 cache design {design!r}; "
        f"available: {list(FIG11_DESIGNS)}"
    )


__all__ = [
    "AmoebaCache",
    "EightByteLineCache",
    "FIG11_DESIGNS",
    "FIG11_VARIANTS",
    "GraphfireCache",
    "ScrabbleCache",
    "SectoredCache",
    "fig11_cache_factory",
]
