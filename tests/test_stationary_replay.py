"""When a run replays recorded phases instead of simulating them.

A stationary run repeats its address streams every iteration
(vertex-centric PageRank, every edge-centric run).  Each of its live
iterations records, per phase, the memory state the phase started in;
once a phase of the next iteration starts in the state the same phase
of the previous one started in, the rest of that iteration repeats the
previous one, and so does every later iteration: they are charged from
the recordings instead of simulated.  A frontier run (vertex-centric
BFS, CC, SSSP, SSWP) never digests, records or snapshots its memory
state.  The replay is exact, so the results always equal a run that
simulates every iteration.
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


def build(system, algorithm, dataset="TW", **overrides):
    """``system`` as the toy profile configures it for ``dataset``; EC
    Piccolo keeps its class defaults (a 4 KB cache, 55 streams an
    iteration)."""
    if system == "EC Piccolo":
        return ECPiccoloSystem(**overrides)
    cell = resolve_cell(
        CellSpec(system=system, algorithm=algorithm, dataset=dataset)
    )
    return make_system(system, **{**cell.make_kwargs, **overrides})


@pytest.fixture(scope="module")
def tw():
    return load_dataset("TW")


def never_repeat(monkeypatch):
    """Patch the replay off: the memory state digest a run compares
    never repeats."""
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
    """``result`` equals the same run with the replay patched off."""
    with pytest.MonkeyPatch.context() as patch:
        never_repeat(patch)
        plain = build(system, algorithm, graph.name).run(
            graph, algorithm, max_iterations=iterations
        )
    assert plain.to_record() == result.to_record()


def cache_calls_by_phase(monkeypatch, accel):
    """Per iteration, the phase index of every ``access_many`` call and
    the number of phases opened, and the path's state digest as each
    iteration begins."""
    iterations, digests = [], []
    for engine in (VertexCentricEngine, EdgeCentricEngine):
        real_step = engine.step

        def step(self, _real=real_step):
            digests.append(accel.path.state_digest())
            iterations.append({"phases": 0, "calls": []})
            return _real(self)

        monkeypatch.setattr(engine, "step", step)
    real_phase = AcceleratorSystem.phase_stats

    def phase_stats(self, *args, **kwargs):
        iterations[-1]["phases"] += 1
        return real_phase(self, *args, **kwargs)

    monkeypatch.setattr(AcceleratorSystem, "phase_stats", phase_stats)
    for cache in (ConventionalCache, PiccoloCache):
        real_access = cache.access_many

        def access_many(self, *args, _real=real_access, **kwargs):
            iterations[-1]["calls"].append(iterations[-1]["phases"] - 1)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(cache, "access_many", access_many)
    return iterations, digests


def assert_catches_up(monkeypatch, graph, system, algorithm, match):
    """The second iteration runs the cache only in its first ``match``
    phases, exactly as often as the first iteration did there, and
    leaves the path in the state the first iteration ended in; no later
    iteration runs the cache.  The record is exact."""
    accel = build(system, algorithm, graph.name)
    iterations, digests = cache_calls_by_phase(monkeypatch, accel)
    result = accel.run(graph, algorithm, max_iterations=4)
    first, second = iterations[0], iterations[1]
    assert second["phases"] == first["phases"] > match
    assert sorted(set(second["calls"])) == list(range(match))
    assert second["calls"] == [p for p in first["calls"] if p < match]
    assert all(not later["calls"] for later in iterations[2:])
    # digests[k] is the state iteration k + 1 begins in
    assert digests[2] == digests[1] != digests[0]
    monkeypatch.undo()
    assert_exact(system, algorithm, graph, 4, result)


@pytest.mark.parametrize("system", VC_SYSTEMS + ("EC Piccolo",))
def test_pagerank_replays_from_its_second_iteration(tw, monkeypatch, system):
    """On TW every cached PR run catches up at the second phase of its
    second iteration."""
    assert_catches_up(monkeypatch, tw, system, "PR", match=1)


def test_catch_up_at_a_later_phase_is_exact(monkeypatch):
    """Piccolo PR on SW catches up at the fifth phase of its second
    iteration, and the replayed rest leaves the path where the first
    iteration ended."""
    assert_catches_up(monkeypatch, load_dataset("SW"), "Piccolo", "PR", match=4)


@pytest.mark.parametrize("system", VC_SYSTEMS)
@pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
def test_frontier_runs_build_no_memo(tw, monkeypatch, system, algorithm):
    """A frontier run's streams change every iteration: the path keeps
    no memo, and the run takes not one cache state digest or
    snapshot."""
    digests = []

    class CountingConventional(ConventionalCache):
        def state_digest(self):
            digests.append(type(self).__name__)
            return super().state_digest()

        def state_snapshot(self):
            digests.append(type(self).__name__)
            return super().state_snapshot()

    class CountingPiccolo(PiccoloCache):
        def state_digest(self):
            digests.append(type(self).__name__)
            return super().state_digest()

        def state_snapshot(self):
            digests.append(type(self).__name__)
            return super().state_snapshot()

    monkeypatch.setattr(systems, "ConventionalCache", CountingConventional)
    monkeypatch.setattr(systems, "PiccoloCache", CountingPiccolo)
    accel = build(system, algorithm)
    result = accel.run(tw, algorithm, max_iterations=3)
    assert result.cache_accesses > 0
    assert accel.path.memo is None
    assert digests == []


def test_edge_centric_frontier_algorithm_replays(tw, monkeypatch):
    """Edge-centric BFS streams every block every iteration, so it is
    stationary and catches up in its second iteration like PR."""
    assert_catches_up(monkeypatch, tw, "EC Piccolo", "BFS", match=1)


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
    """Once an iteration has caught up (the second; without a memory
    path it repeats the first from its first phase), no later PR
    iteration runs the cache, hands a phase a request or flushes the
    MSHR."""
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


def change_tiles_from(monkeypatch, first, change):
    """Drop or repeat the last tile of every trace from the 0-based
    iteration ``first`` on."""
    real = VertexCentricEngine.step

    def step(self):
        trace = real(self)
        if trace.iteration >= first:
            tiles = trace.tiles
            trace.tiles = (
                tiles[:-1] if change == "drop a tile" else tiles + tiles[-1:]
            )
        return trace

    monkeypatch.setattr(VertexCentricEngine, "step", step)


@pytest.mark.parametrize("change", ("drop a tile", "repeat a tile"))
@pytest.mark.parametrize("system", ("Piccolo", "Graphicionado"))
def test_replay_must_open_the_recorded_phases(tw, monkeypatch, system, change):
    """A fast-forwarded iteration that opens fewer or more phases than
    its recording raises instead of charging a wrong iteration."""
    change_tiles_from(monkeypatch, 2, change)
    with pytest.raises(RuntimeError, match="recording"):
        build(system, "PR").run(tw, "PR", max_iterations=4)


@pytest.mark.parametrize("change", ("drop a tile", "repeat a tile"))
@pytest.mark.parametrize("system", ("Piccolo", "Graphicionado"))
def test_caught_up_iteration_must_open_the_recorded_phases(
    tw, monkeypatch, system, change
):
    """The iteration that catches up (Piccolo's second, at its second
    phase; Graphicionado's second, at its first) raises when it opens
    fewer or more phases after the match than the recording has left."""
    change_tiles_from(monkeypatch, 1, change)
    with pytest.raises(RuntimeError, match="recording"):
        build(system, "PR").run(tw, "PR", max_iterations=2)
