"""Which runs build a replay memo, what it replays, and when a run
fast-forwards.

A stationary run repeats its address streams every iteration
(vertex-centric PageRank, every edge-centric run), so its memory path
records every memo miss and replays from the first repeated iteration.
Once one of its iterations ends in the memory state it started in,
every later iteration is charged from that iteration's recording
instead of simulated.  A frontier run (vertex-centric BFS, CC, SSSP,
SSWP) builds no memo, never digests the cache and records nothing.
Replay and fast-forward are exact, so the results always equal a run
without them.
"""

import itertools

import pytest

from repro.accel import systems
from repro.accel.base import AcceleratorSystem
from repro.accel.systems import SYSTEMS, ECPiccoloSystem, make_system
from repro.algorithms.ecm import EdgeCentricEngine
from repro.algorithms.vcm import VertexCentricEngine
from repro.cache.conventional import ConventionalCache
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import ConventionalMemoryPath, FineGrainedMemoryPath
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.system import PhaseAccumulator
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


def never_repeat(monkeypatch):
    """Patch the fast-forward off: the memory state digest a run checks
    for a fixed point never repeats."""
    fresh = itertools.count()
    monkeypatch.setattr(
        AcceleratorSystem, "state_digest",
        lambda self: next(fresh).to_bytes(8, "little"),
    )


@pytest.fixture
def no_fast_forward(monkeypatch):
    never_repeat(monkeypatch)


def count_calls(monkeypatch, targets):
    """Count calls to each ``(owner, name)`` method; returns the tally."""
    calls = {}
    for owner, name in targets:
        key = f"{owner.__name__}.{name}"
        calls[key] = 0
        real = getattr(owner, name)

        def counted(self, *args, _real=real, _key=key, **kwargs):
            calls[_key] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def per_iteration(monkeypatch, calls):
    """Snapshots of ``calls`` as each engine step begins; the difference
    of consecutive snapshots is one iteration's calls."""
    marks = []
    for engine in (VertexCentricEngine, EdgeCentricEngine):
        real = engine.step

        def step(self, _real=real):
            marks.append(dict(calls))
            return _real(self)

        monkeypatch.setattr(engine, "step", step)
    return marks


def deltas(marks):
    return [
        {key: later[key] - earlier[key] for key in earlier}
        for earlier, later in zip(marks, marks[1:])
    ]


def assert_exact(system, algorithm, graph, iterations, result):
    """``result`` equals the same run on a path without a memo."""
    without = build(system, algorithm, replay_capacity=0)
    plain = without.run(graph, algorithm, max_iterations=iterations)
    assert without.path.memo is None
    assert plain.to_record() == result.to_record()


@pytest.mark.parametrize("system", VC_SYSTEMS + ("EC Piccolo",))
def test_pagerank_replays_from_its_second_iteration(
    tw, no_fast_forward, system
):
    """Three simulated PR iterations: the first records and the next two
    replay, so more than half the lookups replay."""
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


# ---------------------------------------------------------------------------
# Iteration fast-forward
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ("PR", "BFS"))
@pytest.mark.parametrize("system", list(SYSTEMS))
def test_fast_forward_is_exact(tw, monkeypatch, system, algorithm):
    """Four iterations with the fast-forward on and patched off give the
    same record; a stationary run opens fewer live phases with it on."""
    records, closes = [], []
    for patched in (False, True):
        with monkeypatch.context() as patch:
            if patched:
                never_repeat(patch)
            calls = count_calls(patch, [(PhaseAccumulator, "close")])
            accel = build(system, algorithm)
            records.append(
                accel.run(tw, algorithm, max_iterations=4).to_record()
            )
            closes.append(calls["PhaseAccumulator.close"])
    assert records[0] == records[1]
    stationary = algorithm == "PR" or system.startswith("EC ")
    assert (closes[0] < closes[1]) == stationary, closes


@pytest.mark.parametrize(
    "system, first_repeat",
    [("Piccolo", 2), ("NMP", 2), ("GraphDyns (Cache)", 2), ("PIM", 1),
     ("EC Piccolo", 2)],
)
def test_fast_forwarded_iteration_simulates_nothing(
    tw, monkeypatch, system, first_repeat
):
    """Once an iteration ends in the state it started in (the second on
    a memory path, the first without one), no later PR iteration runs
    the cache, hands a phase a request or flushes the MSHR."""
    calls = count_calls(monkeypatch, [
        (ConventionalCache, "access_many"),
        (PiccoloCache, "access_many"),
        (PhaseAccumulator, "add"),
        (CollectionExtendedMSHR, "flush"),
    ])
    marks = per_iteration(monkeypatch, calls)
    result = build(system, "PR").run(tw, "PR", max_iterations=6)
    assert result.iterations == 6
    steps = deltas(marks)  # iterations 1..5; the 6th ends with finish
    assert steps[0]["PhaseAccumulator.add"] > 0
    for step in steps[first_repeat:]:
        assert not any(step.values()), step


def test_state_that_never_repeats_simulates_every_iteration(
    tw, monkeypatch, no_fast_forward
):
    """A stationary run whose memory state never repeats charges every
    iteration live: each runs the memory path and closes its phases."""
    calls = count_calls(monkeypatch, [
        (FineGrainedMemoryPath, "run"),
        (ConventionalMemoryPath, "run"),
        (PhaseAccumulator, "close"),
    ])
    marks = per_iteration(monkeypatch, calls)
    build("Piccolo", "PR").run(tw, "PR", max_iterations=5)
    steps = deltas(marks)
    assert len(steps) == 4
    assert all(step["FineGrainedMemoryPath.run"] > 0 for step in steps)
    assert len({step["PhaseAccumulator.close"] for step in steps}) == 1


@pytest.mark.parametrize("change", ("drop a tile", "repeat a tile"))
@pytest.mark.parametrize("system", ("Piccolo", "Graphicionado"))
def test_replay_must_open_the_recorded_phases(tw, monkeypatch, system, change):
    """A fast-forwarded iteration that opens fewer or more phases than
    its recording raises instead of charging a wrong iteration."""
    real = VertexCentricEngine.step

    def step(self):
        trace = real(self)
        if trace.iteration >= 2:
            tiles = trace.tiles
            trace.tiles = (
                tiles[:-1] if change == "drop a tile" else tiles + tiles[-1:]
            )
        return trace

    monkeypatch.setattr(VertexCentricEngine, "step", step)
    with pytest.raises(RuntimeError, match="recording"):
        build(system, "PR").run(tw, "PR", max_iterations=4)
