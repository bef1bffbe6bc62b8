"""Which runs build a replay memo, and what it replays.

A stationary run repeats its address streams every iteration
(vertex-centric PageRank, every edge-centric run), so its memory path
records every memo miss and replays from the first repeated iteration.
A frontier run (vertex-centric BFS, CC, SSSP, SSWP) builds no memo and
never digests the cache.  Replay is exact, so the results always equal
a memo-less run's.
"""

import pytest

from repro.accel import systems
from repro.accel.systems import ECPiccoloSystem, make_system
from repro.cache.conventional import ConventionalCache
from repro.core.piccolo_cache import PiccoloCache
from repro.experiments.runner import CellSpec, resolve_cell
from repro.graph.datasets import load_dataset

VC_SYSTEMS = ("GraphDyns (Cache)", "NMP", "Piccolo")
FRONTIER_ALGORITHMS = ("BFS", "CC", "SSSP", "SSWP")


def build(system, algorithm, **overrides):
    """``system`` as the toy profile configures it for TW; EC Piccolo
    keeps its class defaults (a 4 KB cache, 55 streams an iteration)."""
    if system == "EC Piccolo":
        return ECPiccoloSystem(**overrides)
    cell = resolve_cell(
        CellSpec(system=system, algorithm=algorithm, dataset="TW")
    )
    return make_system(system, **{**cell.make_kwargs, **overrides})


@pytest.fixture(scope="module")
def tw():
    return load_dataset("TW")


def assert_exact(system, algorithm, graph, iterations, result):
    """``result`` equals the same run on a path without a memo."""
    without = build(system, algorithm, replay_capacity=0)
    plain = without.run(graph, algorithm, max_iterations=iterations)
    assert without.path.memo is None
    assert plain.to_record() == result.to_record()


@pytest.mark.parametrize("system", VC_SYSTEMS + ("EC Piccolo",))
def test_pagerank_replays_from_its_second_iteration(tw, system):
    """Three PR iterations: the first records and the next two replay,
    so more than half the lookups replay."""
    accel = build(system, "PR")
    result = accel.run(tw, "PR", max_iterations=3)
    memo = accel.path.memo
    assert memo.hits > memo.misses, (memo.hits, memo.misses)
    assert_exact(system, "PR", tw, 3, result)


@pytest.mark.parametrize("system", VC_SYSTEMS)
@pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
def test_frontier_runs_build_no_memo(tw, monkeypatch, system, algorithm):
    """A frontier run's streams change every iteration: no memo, and
    not one cache state digest."""
    digests = []

    class CountingConventional(ConventionalCache):
        def state_digest(self):
            digests.append(type(self).__name__)
            return super().state_digest()

    class CountingPiccolo(PiccoloCache):
        def state_digest(self):
            digests.append(type(self).__name__)
            return super().state_digest()

    monkeypatch.setattr(systems, "ConventionalCache", CountingConventional)
    monkeypatch.setattr(systems, "PiccoloCache", CountingPiccolo)
    accel = build(system, algorithm)
    result = accel.run(tw, algorithm, max_iterations=3)
    assert result.cache_accesses > 0
    assert accel.path.memo is None
    assert digests == []


def test_edge_centric_frontier_algorithm_replays(tw):
    """Edge-centric BFS streams every block every iteration, so it keeps
    its memo and replays from its second iteration."""
    accel = build("EC Piccolo", "BFS")
    result = accel.run(tw, "BFS", max_iterations=2)
    assert accel.path.memo.hits > 0
    assert_exact("EC Piccolo", "BFS", tw, 2, result)
