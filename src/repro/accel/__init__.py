"""End-to-end accelerator systems (Sec. VII-A baselines + Piccolo).

Every system follows the template of Fig. 1: a prefetcher streams topology
and sequential vertex properties, PEs process edges, and an updater issues
the random temporary-property accesses, which are the part each system
handles differently:

================== ==============================================
Graphicionado      scratchpad, perfect tiling, applies whole tiles
GraphDyns (SPM)    scratchpad, perfect tiling, applies touched only
GraphDyns (Cache)  conventional 64 B cache, tuned tile width
NMP                fine-grained cache + MSHR, rank-level gathers
PIM                no on-chip locality; per-edge in-memory atomics
Piccolo            Piccolo-cache + collection-extended MSHR + FIM
EC Conventional    edge-centric grid, scratchpad source/dest tiles
EC Piccolo         edge-centric grid over Piccolo's cache and MSHR
================== ==============================================
"""

from repro.accel.layout import MemoryLayout
from repro.accel.pipeline import PipelineConfig
from repro.accel.base import SystemResult, AcceleratorSystem
from repro.accel.systems import (
    GraphicionadoSystem,
    GraphDynsSPMSystem,
    GraphDynsCacheSystem,
    NMPSystem,
    PIMSystem,
    PiccoloSystem,
    SYSTEMS,
    make_system,
)
from repro.accel.tuner import tune_tile_scale

__all__ = [
    "MemoryLayout",
    "PipelineConfig",
    "SystemResult",
    "AcceleratorSystem",
    "GraphicionadoSystem",
    "GraphDynsSPMSystem",
    "GraphDynsCacheSystem",
    "NMPSystem",
    "PIMSystem",
    "PiccoloSystem",
    "SYSTEMS",
    "make_system",
    "tune_tile_scale",
]
