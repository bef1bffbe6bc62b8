"""Piccolo (HPCA 2025) reproduction.

A production-quality Python library reproducing *Piccolo: Large-Scale Graph
Processing with Fine-Grained In-Memory Scatter-Gather* (Shin et al., HPCA
2025).  The package contains:

- ``repro.graph`` -- CSR graphs, synthetic generators, dataset registry,
  destination tiling.
- ``repro.algorithms`` -- vertex-centric (Algorithm 1) and edge-centric
  engines with PageRank, BFS, CC, SSSP and SSWP.
- ``repro.dram`` -- the fast row-episode phase model with
  DDR4/LPDDR4/GDDR5/HBM device specs, plus ``repro.dram.engine``, a
  cycle-accurate command-level engine (full JEDEC constraint set,
  refresh, FR-FCFS, FIM virtual-row sequencing) with an independent trace
  checker and cross-validation against the phase model.
- ``repro.core`` -- the paper's contribution: Piccolo-FIM (a functional
  in-DRAM random scatter-gather bank), Piccolo-cache and the
  collection-extended MSHR.
- ``repro.cache`` -- comparison cache designs (conventional, sectored,
  8B-line, amoeba, scrabble, graphfire).
- ``repro.accel`` -- end-to-end accelerator systems: Graphicionado,
  GraphDyns (SPM/Cache), NMP, PIM and Piccolo.
- ``repro.energy`` -- CACTI-like SRAM, DRAM energy, and area models.
- ``repro.olap`` -- the in-memory database workload of Fig. 19b.
- ``repro.validate`` -- FIM validation on engine traces and the Fig. 9
  microbenchmark.
- ``repro.experiments`` -- named configurations and figure runners.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
