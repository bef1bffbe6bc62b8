"""Process-pool sweep orchestrator with shared graphs and checkpoints.

Every figure sweep is an embarrassingly parallel grid over
(system, algorithm, dataset) cells; :func:`run_cells` shards a list of
:class:`~repro.experiments.runner.CellSpec` across worker processes and
gives each sweep three properties the serial loop lacks:

**One graph copy per machine.**  The parent materialises each distinct
(dataset, shift) once as a memmap directory
(:func:`repro.graph.datasets.materialize_memmap`); spawn workers attach
the same files read-only (:func:`repro.graph.datasets.attach_memmap`),
so the edge arrays live once in the page cache no matter how many
workers simulate against them.  Workers run with the no-generation
guard set: a cell whose dataset the parent did not materialise fails
loudly instead of silently regenerating a million-edge RMAT graph per
worker.

**Resumable per-cell checkpoints.**  With a ``checkpoint_dir``, every
completed cell is written as a JSON + ``.npz`` record keyed by the
cell's canonical digest (the same digest that keys the in-process
result memo, so the two caches cannot disagree).  Records are committed
atomically (tmp file + rename, JSON last), so a sweep killed mid-cell
leaves only whole records behind; ``resume=True`` loads finished cells
instead of re-running them, which is also how repeated sweeps skip
work they already did.

**Bit-identical results.**  Workers run exactly
:func:`repro.experiments.runner.run_resolved` on exactly the resolved
spec; simulations are deterministic, so a parallel sweep's counters and
timings equal the serial sweep's bit-for-bit (pinned by
``tests/test_parallel.py``).

Cells whose spec cannot be pickled or digested (a ``cache_factory``
callable in ``system_kwargs``) fall back to serial execution in the
parent -- they still complete, they just cannot be sharded or
checkpointed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import pickle
import resource
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from repro.accel.base import SystemResult
from repro.experiments import runner
from repro.experiments.runner import CellSpec, ResolvedCell, resolve_cell
from repro.graph import datasets

#: checkpoint record layout version
CHECKPOINT_FORMAT = 1

#: default checkpoint root used by the CLI's ``--resume``
DEFAULT_CHECKPOINT_DIR = ".repro_checkpoints"


@dataclass
class CellOutcome:
    """One completed cell: its result plus how it was obtained."""

    spec: CellSpec
    digest: str | None
    result: SystemResult
    #: wall-clock of the simulation itself (0.0 for checkpoint loads)
    seconds: float
    #: peak RSS of the process that ran the cell, in MB (cumulative
    #: process high-water mark, not a per-cell delta)
    rss_mb: float
    #: "run" (parent, serial), "worker" (pool), or "checkpoint" (loaded)
    source: str


class SweepCheckpointStore:
    """Digest-keyed per-cell checkpoint records on disk.

    A record is two files: ``<digest>.npz`` (the numeric counters as
    arrays, written first) and ``<digest>.json`` (cell identity, exact
    result record, timing -- written last, so its presence marks a
    complete record).  Both are committed via tmp-file + ``os.replace``;
    a SIGKILL mid-write can never leave a record that loads.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        # Fail here, loudly, rather than deep inside an npz read/write
        # later: a root that collides with an existing file or sits
        # under an unwritable/defunct parent is a caller mistake the
        # error message should name.
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError as exc:
            raise ValueError(
                f"checkpoint directory {self.root} collides with an "
                f"existing non-directory file"
            ) from exc
        except NotADirectoryError as exc:
            raise ValueError(
                f"checkpoint directory {self.root} has a non-directory "
                f"ancestor; choose a path whose parents are directories"
            ) from exc
        except PermissionError as exc:
            raise ValueError(
                f"checkpoint directory {self.root} is not creatable: "
                f"permission denied ({exc})"
            ) from exc
        if not os.access(self.root, os.W_OK | os.X_OK):
            raise ValueError(
                f"checkpoint directory {self.root} is not writable; "
                f"records could not be committed there"
            )

    def json_path(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.json"

    def npz_path(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.npz"

    def digests(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json")))

    def has(self, digest: str) -> bool:
        return self.json_path(digest).is_file() and self.npz_path(digest).is_file()

    def save(
        self,
        cell: ResolvedCell,
        result: SystemResult,
        seconds: float,
        rss_mb: float,
    ) -> None:
        if cell.digest is None:
            raise ValueError("cannot checkpoint an undigestable cell")
        record = {
            "format": CHECKPOINT_FORMAT,
            "digest": cell.digest,
            "cell": {
                "system": cell.system,
                "algorithm": cell.algorithm,
                "dataset": cell.dataset,
                "shift": cell.shift,
                "max_iterations": cell.max_iterations,
            },
            "timing": {
                "seconds": seconds,
                "rss_mb": rss_mb,
                "completed_at": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
            },
            "result": result.to_record(),
        }
        flat = dict(record["result"])
        dram = flat.pop("dram", {})
        arrays = {
            k: np.asarray(v)
            for k, v in flat.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        arrays.update(
            {f"dram__{k}": np.asarray(v) for k, v in dram.items()}
        )
        if not self.root.is_dir():
            raise ValueError(
                f"checkpoint directory {self.root} disappeared after the "
                f"store was opened; records cannot be committed"
            )
        npz_tmp = self.npz_path(cell.digest).with_suffix(
            f".npz.tmp.{os.getpid()}"
        )
        json_tmp = self.json_path(cell.digest).with_suffix(
            f".json.tmp.{os.getpid()}"
        )
        try:
            with open(npz_tmp, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(npz_tmp, self.npz_path(cell.digest))
            json_tmp.write_text(json.dumps(record, indent=1) + "\n")
            os.replace(json_tmp, self.json_path(cell.digest))
        except BaseException:
            npz_tmp.unlink(missing_ok=True)
            json_tmp.unlink(missing_ok=True)
            raise

    def load(self, digest: str) -> tuple[SystemResult, dict] | None:
        """(result, record) for a complete record, else None.

        Corrupt or partial records (a crash between the two writes, a
        truncated file) read as missing -- the cell simply re-runs.
        """
        json_path = self.json_path(digest)
        if not json_path.is_file() or not self.npz_path(digest).is_file():
            return None
        try:
            record = json.loads(json_path.read_text())
            if record.get("format") != CHECKPOINT_FORMAT:
                return None
            result = SystemResult.from_record(record["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return result, record


# ---------------------------------------------------------------------------
# Pool worker entry points (module-level: spawn workers import this module)
# ---------------------------------------------------------------------------
def _worker_init(manifest: dict, tile_root=None) -> None:
    """Attach every materialised graph and forbid worker-side generation.

    ``tile_root`` points every worker's disk-backed tile builds at one
    shared store directory, so a (graph, tile_width) store is built by
    the first worker that needs it (first-writer-wins) and *attached*
    by the rest -- the tile analogue of the shared memmapped graphs.
    """
    for (name, shift), path in manifest.items():
        datasets.attach_memmap(name, shift, path)
    datasets.set_require_attached(True)
    if tile_root is not None:
        from repro.graph import tilestore

        tilestore.set_default_root(tile_root)


def _worker_run(spec: CellSpec):
    cell = resolve_cell(spec)
    start = time.perf_counter()
    result = runner.run_resolved(cell)
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return cell.digest, result, seconds, rss_mb


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
def run_cells(
    specs,
    *,
    workers: int | None = None,
    resume: bool = False,
    checkpoint_dir: str | os.PathLike | None = None,
    graph_dir: str | os.PathLike | None = None,
    progress=None,
) -> list[CellOutcome]:
    """Run a sweep of cells, optionally sharded across worker processes.

    Args:
        specs: iterable of :class:`CellSpec` (duplicates by digest run
            once and share an outcome).
        workers: process count; ``None``/0/1 runs serially in-process
            (still checkpointing when a ``checkpoint_dir`` is given);
            a negative count raises ``ValueError``.
        resume: load digest-matching records from ``checkpoint_dir``
            instead of re-running their cells.
        checkpoint_dir: where per-cell records live; required for
            ``resume``.
        graph_dir: where memmapped graphs are materialised for workers
            (default: ``<checkpoint_dir>/graphs``, or a temporary
            directory removed after the sweep when no checkpoint dir is
            given).
        progress: optional ``callable(CellOutcome)`` invoked as each
            cell completes, in completion order.

    Returns one :class:`CellOutcome` per input spec, in input order.
    Every completed result is also installed into the runner's result
    memo, so serial figure loops after a sweep hit the memo.
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    specs = list(specs)
    cells = [resolve_cell(spec) for spec in specs]
    store = (
        SweepCheckpointStore(checkpoint_dir)
        if checkpoint_dir is not None else None
    )

    outcomes: dict[int, CellOutcome] = {}
    first_by_digest: dict[str, int] = {}
    duplicate_of: dict[int, int] = {}
    pending: list[tuple[int, ResolvedCell]] = []
    for index, cell in enumerate(cells):
        if cell.digest is not None:
            first = first_by_digest.setdefault(cell.digest, index)
            if first != index:
                duplicate_of[index] = first
                continue
            if store is not None and resume:
                loaded = store.load(cell.digest)
                if loaded is not None:
                    result, record = loaded
                    outcomes[index] = CellOutcome(
                        spec=cell.spec,
                        digest=cell.digest,
                        result=result,
                        seconds=0.0,
                        rss_mb=0.0,
                        source="checkpoint",
                    )
                    runner.install_result(cell.digest, result)
                    if progress is not None:
                        progress(outcomes[index])
                    continue
        pending.append((index, cell))

    n_workers = int(workers or 0)
    pool_cells: list[tuple[int, ResolvedCell]] = []
    local_cells: list[tuple[int, ResolvedCell]] = []
    if n_workers > 1 and len(pending) > 1:
        for index, cell in pending:
            if _picklable(cell.spec):
                pool_cells.append((index, cell))
            else:
                local_cells.append((index, cell))
    else:
        local_cells = pending

    if pool_cells:
        _run_pool(
            pool_cells, n_workers, store, graph_dir, checkpoint_dir,
            outcomes, progress,
        )

    for index, cell in local_cells:
        start = time.perf_counter()
        result = runner.run_resolved(cell)
        seconds = time.perf_counter() - start
        outcome = CellOutcome(
            spec=cell.spec,
            digest=cell.digest,
            result=result,
            seconds=seconds,
            rss_mb=_self_rss_mb(),
            source="run",
        )
        if store is not None and cell.digest is not None:
            store.save(cell, result, seconds, outcome.rss_mb)
        outcomes[index] = outcome
        if progress is not None:
            progress(outcome)

    for index, first in duplicate_of.items():
        outcomes[index] = outcomes[first]
    return [outcomes[index] for index in range(len(cells))]


def _picklable(spec: CellSpec) -> bool:
    try:
        pickle.dumps(spec)
    except Exception:
        return False
    return True


def _run_pool(
    pool_cells, n_workers, store, graph_dir, checkpoint_dir, outcomes, progress
) -> None:
    if graph_dir is not None:
        graph_root, temporary = pathlib.Path(graph_dir), False
    elif checkpoint_dir is not None:
        graph_root, temporary = pathlib.Path(checkpoint_dir) / "graphs", False
    else:
        graph_root, temporary = (
            pathlib.Path(tempfile.mkdtemp(prefix="repro-graphs-")), True
        )
    try:
        manifest = {}
        for dataset, shift in sorted(
            {(c.dataset, c.shift) for _, c in pool_cells}
        ):
            manifest[(dataset, shift)] = str(
                datasets.materialize_memmap(dataset, shift, graph_root)
            )
        context = multiprocessing.get_context("spawn")
        max_workers = min(n_workers, len(pool_cells))
        with ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(manifest, str(graph_root / "tiles")),
        ) as executor:
            futures = {
                executor.submit(_worker_run, cell.spec): (index, cell)
                for index, cell in pool_cells
            }
            for future in as_completed(futures):
                index, cell = futures[future]
                digest, result, seconds, rss_mb = future.result()
                outcome = CellOutcome(
                    spec=cell.spec,
                    digest=digest,
                    result=result,
                    seconds=seconds,
                    rss_mb=rss_mb,
                    source="worker",
                )
                if store is not None and digest is not None:
                    store.save(cell, result, seconds, rss_mb)
                if digest is not None:
                    runner.install_result(digest, result)
                outcomes[index] = outcome
                if progress is not None:
                    progress(outcome)
    finally:
        if temporary:
            shutil.rmtree(graph_root, ignore_errors=True)


def sweep_rss_mb(outcomes: list[CellOutcome]) -> dict[str, float]:
    """Peak-RSS summary of a sweep: the parent's own high-water mark and
    the largest worker high-water mark (0.0 for serial sweeps)."""
    worker = [o.rss_mb for o in outcomes if o.source == "worker"]
    return {
        "parent_rss_mb": round(_self_rss_mb(), 1),
        "max_worker_rss_mb": round(max(worker), 1) if worker else 0.0,
    }


__all__ = [
    "CellOutcome",
    "DEFAULT_CHECKPOINT_DIR",
    "SweepCheckpointStore",
    "run_cells",
    "sweep_rss_mb",
]
