"""Tests for the parallel sweep runner: cell digests, shared-memmap
graphs, checkpoint records, parallel-vs-serial equivalence, and
kill-and-resume."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.accel.base import SystemResult
from repro.experiments import parallel, runner
from repro.experiments.config import get_profile
from repro.experiments.runner import (
    CellSpec,
    clear_result_cache,
    resolve_cell,
    run_system,
)
from repro.graph import datasets, graphio

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _clean_state():
    clear_result_cache()
    yield
    clear_result_cache()
    datasets.detach_memmaps()
    datasets.set_require_attached(False)


def _spec(system="PIM", algorithm="PR", dataset="UU", **kw):
    kw.setdefault("max_iterations", 1)
    return CellSpec(system=system, algorithm=algorithm, dataset=dataset, **kw)


# ---------------------------------------------------------------------------
# Canonical cell digests
# ---------------------------------------------------------------------------
class TestCellDigest:
    def test_equivalent_spellings_share_a_digest(self):
        base = resolve_cell(_spec()).digest
        assert base is not None
        # profile by name, by object, and explicit default shift all
        # resolve to the same cell
        assert resolve_cell(_spec(scale="toy")).digest == base
        assert resolve_cell(_spec(scale=get_profile("toy"))).digest == base
        default_shift = datasets.resolve_shift("UU", None)
        assert (
            resolve_cell(_spec(scale_shift=default_shift)).digest == base
        )

    def test_distinct_cells_differ(self):
        base = resolve_cell(_spec()).digest
        assert resolve_cell(_spec(system="Piccolo")).digest != base
        assert resolve_cell(_spec(algorithm="BFS")).digest != base
        assert resolve_cell(_spec(max_iterations=2)).digest != base
        assert resolve_cell(_spec(tile_scale=4)).digest != base

    def test_cache_design_is_digestable(self):
        cell = resolve_cell(
            _spec(system="Piccolo", cache_design="Sectored")
        )
        assert cell.digest is not None
        assert "cache_factory" in cell.make_kwargs

    def test_callable_kwarg_is_undigestable(self):
        cell = resolve_cell(
            _spec(
                system="Piccolo",
                system_kwargs=(("cache_factory", lambda size: None),),
            )
        )
        assert cell.digest is None

    def test_digest_keys_the_result_memo(self):
        # run_system and the checkpoint store must agree on cell identity
        a = run_system("PIM", "PR", "UU", max_iterations=1)
        digest = resolve_cell(_spec()).digest
        fake = SystemResult(system="PIM", algorithm="PR", dataset="UU")
        runner.install_result(digest, fake)
        assert run_system("PIM", "PR", "UU", max_iterations=1) is fake
        assert a is not fake


class TestResultCacheBound:
    def test_lru_eviction(self):
        cache = runner._ResultCache(maxsize=3)
        results = {}
        for i in range(5):
            results[i] = SystemResult(system=f"s{i}", algorithm="PR",
                                      dataset="X")
            cache.put(f"d{i}", results[i])
        assert len(cache) == 3
        assert "d0" not in cache and "d1" not in cache
        assert cache.get("d4") is results[4]

    def test_global_memo_is_bounded(self):
        clear_result_cache()
        for i in range(runner.RESULT_CACHE_MAXSIZE + 16):
            runner.install_result(
                f"digest-{i}",
                SystemResult(system="s", algorithm="PR", dataset="X"),
            )
        assert len(runner._RESULT_CACHE) == runner.RESULT_CACHE_MAXSIZE


# ---------------------------------------------------------------------------
# Memmapped graph sharing
# ---------------------------------------------------------------------------
class TestGraphMemmap:
    def test_round_trip(self, tmp_path, small_random_graph):
        target = graphio.to_memmap(small_random_graph, tmp_path / "g")
        loaded = graphio.from_memmap(target)
        assert loaded.name == small_random_graph.name
        np.testing.assert_array_equal(
            loaded.indptr, small_random_graph.indptr
        )
        np.testing.assert_array_equal(
            loaded.indices, small_random_graph.indices
        )
        np.testing.assert_array_equal(
            loaded.weights, small_random_graph.weights
        )
        # attached arrays are zero-copy read-only views of the mapping
        # (CSRGraph validation re-wraps them as base ndarrays)
        assert isinstance(loaded.indices.base, np.memmap)
        assert not loaded.indices.flags.writeable
        with pytest.raises(ValueError):
            loaded.indices[0] = 1

    def test_first_writer_wins(self, tmp_path, small_random_graph,
                               tiny_graph):
        target = graphio.to_memmap(small_random_graph, tmp_path / "g")
        again = graphio.to_memmap(tiny_graph, tmp_path / "g")
        assert again == target
        assert graphio.from_memmap(target).name == small_random_graph.name

    def test_incomplete_directory_rejected(self, tmp_path):
        (tmp_path / "g").mkdir()
        (tmp_path / "g" / "meta.json").write_text("{not json")
        with pytest.raises(FileNotFoundError):
            graphio.from_memmap(tmp_path / "g")

    def test_attach_serves_load_dataset(self, tmp_path):
        path = datasets.materialize_memmap("UU", None, tmp_path)
        datasets.detach_memmaps()
        graph = datasets.attach_memmap("UU", None, path)
        assert datasets.load_dataset("UU") is graph
        assert isinstance(graph.indices.base, np.memmap)

    def test_require_attached_forbids_generation(self):
        datasets.load_dataset.cache_clear()
        datasets.set_require_attached(True)
        with pytest.raises(RuntimeError, match="not memmap-attached"):
            datasets.load_dataset("UU")

    def test_materialize_generates_once_per_dataset_shift(
        self, tmp_path, monkeypatch
    ):
        import dataclasses as dc

        calls = []
        spec = datasets.DATASETS["UU"]
        counting = dc.replace(
            spec, build=lambda shift: (calls.append(shift),
                                       spec.build(shift))[1]
        )
        monkeypatch.setitem(datasets.DATASETS, "UU", counting)
        datasets.load_dataset.cache_clear()
        datasets.materialize_memmap("UU", None, tmp_path)
        # a second materialisation -- even with cold caches, as after a
        # kill -- reuses the on-disk graph instead of regenerating
        datasets.load_dataset.cache_clear()
        datasets.materialize_memmap("UU", None, tmp_path)
        assert calls == [spec.scale_shift]


# ---------------------------------------------------------------------------
# Checkpoint records
# ---------------------------------------------------------------------------
class TestCheckpointStore:
    def test_record_round_trip(self, tmp_path):
        cell = resolve_cell(_spec())
        result = runner.run_resolved(cell)
        store = parallel.SweepCheckpointStore(tmp_path)
        store.save(cell, result, seconds=1.25, rss_mb=64.0)
        loaded, record = store.load(cell.digest)
        assert loaded == result  # bit-exact dataclass equality
        assert record["cell"]["system"] == "PIM"
        assert record["timing"]["seconds"] == 1.25

    def test_result_record_json_round_trip(self):
        result = runner.run_resolved(resolve_cell(_spec()))
        wire = json.loads(json.dumps(result.to_record()))
        assert SystemResult.from_record(wire) == result

    def test_unknown_record_fields_rejected(self):
        result = SystemResult(system="s", algorithm="PR", dataset="X")
        record = result.to_record()
        record["bogus"] = 1
        with pytest.raises(ValueError, match="unknown SystemResult"):
            SystemResult.from_record(record)

    def test_corrupt_record_reads_as_missing(self, tmp_path):
        cell = resolve_cell(_spec())
        result = runner.run_resolved(cell)
        store = parallel.SweepCheckpointStore(tmp_path)
        store.save(cell, result, seconds=0.1, rss_mb=1.0)
        store.json_path(cell.digest).write_text("{truncated")
        assert store.load(cell.digest) is None
        store.npz_path(cell.digest).unlink()
        assert not store.has(cell.digest)

    def test_undigestable_cell_cannot_checkpoint(self, tmp_path):
        cell = resolve_cell(
            _spec(system="Piccolo",
                  system_kwargs=(("cache_factory", lambda s: None),))
        )
        store = parallel.SweepCheckpointStore(tmp_path)
        result = SystemResult(system="Piccolo", algorithm="PR", dataset="UU")
        with pytest.raises(ValueError, match="undigestable"):
            store.save(cell, result, seconds=0.0, rss_mb=0.0)

    def test_missing_directory_is_created(self, tmp_path):
        root = tmp_path / "deep" / "nested" / "ckpt"
        assert not root.exists()
        store = parallel.SweepCheckpointStore(root)
        assert root.is_dir()
        assert len(store) == 0

    def test_root_colliding_with_a_file_is_a_clear_error(self, tmp_path):
        collision = tmp_path / "ckpt"
        collision.write_text("I am not a directory")
        with pytest.raises(ValueError, match="existing non-directory file"):
            parallel.SweepCheckpointStore(collision)

    def test_root_under_a_file_ancestor_is_a_clear_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("files cannot have children")
        with pytest.raises(ValueError, match="non-directory ancestor"):
            parallel.SweepCheckpointStore(blocker / "ckpt")

    def test_directory_vanishing_after_open_is_a_clear_error(self, tmp_path):
        import shutil

        root = tmp_path / "ckpt"
        store = parallel.SweepCheckpointStore(root)
        cell = resolve_cell(_spec())
        result = runner.run_resolved(cell)
        shutil.rmtree(root)
        with pytest.raises(ValueError, match="disappeared"):
            store.save(cell, result, seconds=0.0, rss_mb=0.0)


# ---------------------------------------------------------------------------
# Parallel-vs-serial equivalence and resume
# ---------------------------------------------------------------------------
EQUIV_SPECS = [
    _spec(system=system, dataset=dataset)
    for system in ("GraphDyns (Cache)", "Piccolo", "PIM")
    for dataset in ("UU", "SW")
]


class TestRunCells:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = [o.result for o in parallel.run_cells(EQUIV_SPECS)]
        clear_result_cache()
        sharded = parallel.run_cells(EQUIV_SPECS, workers=4)
        assert {o.source for o in sharded} == {"worker"}
        for expect, outcome in zip(serial, sharded):
            assert outcome.result == expect  # all-scalar dataclass ==
        assert all(o.seconds > 0 for o in sharded)
        assert all(o.rss_mb > 0 for o in sharded)

    def test_duplicate_specs_share_one_outcome(self):
        outcomes = parallel.run_cells([_spec(), _spec()])
        assert outcomes[0] is outcomes[1]

    def test_serial_checkpoints_and_resume_skips(self, tmp_path,
                                                 monkeypatch):
        specs = EQUIV_SPECS[:3]
        parallel.run_cells(specs, checkpoint_dir=tmp_path)
        assert len(parallel.SweepCheckpointStore(tmp_path)) == 3

        ran = []
        real = runner.run_resolved
        monkeypatch.setattr(
            runner, "run_resolved",
            lambda cell: (ran.append(cell.digest), real(cell))[1],
        )
        clear_result_cache()
        outcomes = parallel.run_cells(
            specs, resume=True, checkpoint_dir=tmp_path
        )
        assert ran == []  # nothing re-simulated
        assert {o.source for o in outcomes} == {"checkpoint"}
        # checkpoint restores seed the memo: a follow-up run_system call
        # for the same cell is a pure lookup
        assert run_system(
            "GraphDyns (Cache)", "PR", "UU", max_iterations=1
        ) is outcomes[0].result

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="requires a checkpoint_dir"):
            parallel.run_cells(EQUIV_SPECS[:1], resume=True)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            parallel.run_cells(EQUIV_SPECS[:2], workers=-3)

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_up_to_one_worker_runs_serially(self, workers):
        outcomes = parallel.run_cells(EQUIV_SPECS[:2], workers=workers)
        assert [o.source for o in outcomes] == ["run", "run"]

    def test_negative_figure_workers_reach_the_check(self):
        from repro.experiments import figures

        with pytest.raises(ValueError, match="workers"):
            figures.figure_10(
                datasets=("UU",), algorithms=("PR",), systems=("PIM",),
                workers=-4,
            )

    def test_workers_share_one_tile_store(self, tmp_path):
        """Disk-backed cells in a pool build each (graph, width) store
        once under the sweep's graph root; later workers attach it --
        the tile analogue of the shared memmapped CSR graphs."""
        specs = [
            _spec(system="Piccolo", tile_backing="disk"),
            _spec(system="NMP", tile_backing="disk"),
        ]
        outcomes = parallel.run_cells(
            specs, workers=2, checkpoint_dir=tmp_path
        )
        assert {o.source for o in outcomes} == {"worker"}
        stores = list((tmp_path / "graphs" / "tiles").glob("tiles-*"))
        assert stores  # built under the shared sweep root, not /tmp
        clear_result_cache()
        serial = [
            runner.run_resolved(resolve_cell(_spec(system=s)))
            for s in ("Piccolo", "NMP")
        ]
        for expect, outcome in zip(serial, outcomes):
            assert outcome.result == expect

    def test_unpicklable_cells_fall_back_to_serial(self, tmp_path):
        from repro.cache.sectored import SectoredCache

        specs = [
            _spec(),
            _spec(
                system="Piccolo",
                system_kwargs=(
                    ("cache_factory",
                     lambda size: SectoredCache(size, ways=8)),
                ),
            ),
        ]
        # must not raise: the lambda cell runs in-process
        outcomes = parallel.run_cells(specs, workers=2)
        assert outcomes[1].digest is None
        assert outcomes[1].source == "run"

    def test_workers_never_generate_datasets(self, tmp_path, monkeypatch):
        import dataclasses as dc

        calls = []
        spec = datasets.DATASETS["UU"]
        counting = dc.replace(
            spec, build=lambda shift: (calls.append(shift),
                                       spec.build(shift))[1]
        )
        monkeypatch.setitem(datasets.DATASETS, "UU", counting)
        datasets.load_dataset.cache_clear()
        specs = [
            _spec(system=s) for s in ("PIM", "Piccolo", "GraphDyns (Cache)")
        ]
        outcomes = parallel.run_cells(
            specs, workers=2, graph_dir=tmp_path
        )
        assert {o.source for o in outcomes} == {"worker"}
        # the parent generated the shared graph exactly once; workers
        # attached the memmap (a worker-side generation would have died
        # on the require-attached guard, failing the sweep)
        assert calls == [spec.scale_shift]


KILL_SCRIPT = """\
import sys, time
sys.path.insert(0, {src!r})
from repro.experiments import parallel
from repro.experiments.runner import CellSpec

_save = parallel.SweepCheckpointStore.save
def slow_save(self, *args, **kwargs):
    _save(self, *args, **kwargs)
    time.sleep(2.0)  # window for the test to SIGKILL us mid-sweep
parallel.SweepCheckpointStore.save = slow_save

specs = [
    CellSpec(system=system, algorithm="PR", dataset="UU", max_iterations=1)
    for system in ("PIM", "Piccolo", "GraphDyns (Cache)")
]
parallel.run_cells(specs, checkpoint_dir={ckpt!r})
"""


class TestKillAndResume:
    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        ckpt = tmp_path / "ck"
        script = tmp_path / "sweep.py"
        script.write_text(
            KILL_SCRIPT.format(src=str(SRC_DIR), ckpt=str(ckpt))
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            store = parallel.SweepCheckpointStore(ckpt)
            while len(store) < 1:
                assert proc.poll() is None, "sweep died before checkpointing"
                assert time.monotonic() < deadline, "no checkpoint in time"
                time.sleep(0.05)
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        finally:
            proc.wait()

        done = store.digests()
        assert 1 <= len(done) < 3
        mtimes = {d: store.json_path(d).stat().st_mtime_ns for d in done}

        specs = [
            _spec(system=s) for s in ("PIM", "Piccolo", "GraphDyns (Cache)")
        ]
        outcomes = parallel.run_cells(
            specs, resume=True, checkpoint_dir=ckpt
        )
        assert len(parallel.SweepCheckpointStore(ckpt)) == 3
        by_digest = {o.digest: o for o in outcomes}
        for digest in done:
            # finished cells were loaded, not re-run...
            assert by_digest[digest].source == "checkpoint"
            # ...and their records were not rewritten
            assert store.json_path(digest).stat().st_mtime_ns == mtimes[digest]
        assert sum(o.source != "checkpoint" for o in outcomes) == 3 - len(done)
        # the resumed sweep's results match a fresh serial run
        clear_result_cache()
        fresh = parallel.run_cells(specs)
        for a, b in zip(outcomes, fresh):
            assert a.result == b.result
