"""Piccolo core: the paper's contribution.

- :mod:`repro.core.piccolo_cache` -- the fine-grained split-tag cache of
  Sec. V (Fig. 5b/6): 128 B lines of 8 B sectors with per-sector fg-tags,
  sequential way search, equal way partitioning, LRU or RRIP.
- :mod:`repro.core.collection_mshr` -- the collection-extended MSHR of
  Sec. V-C (Fig. 7): GA-/SC-MSHR halves that batch same-row misses into
  Piccolo-FIM scatter/gather operations.
- :mod:`repro.core.fim` -- a *functional* DRAM device with the offset/data
  buffers and internal controller of Sec. IV (Fig. 4), moving real bytes
  (driven by the engine's Sec. VI traces in ``repro validate``).
- :mod:`repro.core.memory_path` -- cache + MSHR + DRAM integration used by
  the Piccolo accelerator system.
"""

from repro.core.piccolo_cache import PiccoloCache
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.fim import FimBank, FimChip
from repro.core.memory_path import FineGrainedMemoryPath, ConventionalMemoryPath

__all__ = [
    "PiccoloCache",
    "CollectionExtendedMSHR",
    "FimBank",
    "FimChip",
    "FineGrainedMemoryPath",
    "ConventionalMemoryPath",
]
