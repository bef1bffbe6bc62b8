"""Experiment service core: content-addressed cache + single-flight runs.

:class:`ExperimentService` is the framework-agnostic heart of the
long-lived service.  The transport -- the stdlib HTTP server
(:mod:`repro.service.http`) -- is a thin serializer over the endpoint
methods here, which all return ``(http_status, payload)`` tuples, so
the wire contract lives in one place.

A ``POST /experiments`` config flows:

1. :func:`repro.experiments.requests.resolve_request` canonicalizes it
   into a :class:`ResolvedCell` with the repo-wide blake2b cell digest
   (the same digest that keys the in-process result memo and the sweep
   checkpoints, so all three caches agree on cell identity).
2. The digest probes the in-process memo
   (:func:`repro.experiments.runner.cached_result`), then the on-disk
   :class:`~repro.experiments.parallel.SweepCheckpointStore` -- the
   content-addressed store, shared with (and warm-started by) any
   earlier sweep that used the same root.  A hit returns the exact
   :meth:`SystemResult.to_record` JSON immediately.
3. A miss enqueues the cell on a background worker pool, with
   **single-flight dedup**: N digest-identical in-flight requests share
   one job and one simulation.  Jobs execute through
   :func:`repro.experiments.parallel.run_cells`, so completed cells are
   checkpointed into the store and installed into the memo exactly the
   way sweep cells are.

Failed jobs keep their error and stay retryable: a later POST of the
same config enqueues a fresh run instead of replaying the failure.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.accel.base import SystemResult
from repro.experiments import parallel, runner
from repro.experiments.parallel import CellOutcome, SweepCheckpointStore
from repro.experiments.requests import (
    RequestError,
    describe_cell,
    resolve_request,
)
from repro.experiments.runner import ResolvedCell

#: default service state directory (checkpoint-store layout inside)
DEFAULT_STORE_DIR = ".repro_service"

#: job lifecycle states reported by ``GET /experiments/{digest}``
JOB_STATES = ("queued", "running", "done", "failed")

#: finished (done/failed) jobs kept for status queries before the
#: oldest are pruned; results themselves persist in the store/memo
MAX_FINISHED_JOBS = 1024


@dataclass
class _Job:
    """One in-flight (or finished) cell run, keyed by cell digest."""

    digest: str
    cell: ResolvedCell
    state: str = "queued"
    error: str | None = None
    outcome: CellOutcome | None = None
    #: monotonic-clock marks for queue/run durations (status payloads)
    enqueued_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    done: threading.Event = field(default_factory=threading.Event)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job leaves the queue/run states (tests)."""
        return self.done.wait(timeout)


@dataclass
class CacheStats:
    """Service-lifetime counters behind ``GET /cache/stats``."""

    hits_memo: int = 0
    hits_store: int = 0
    misses: int = 0
    single_flight_joined: int = 0
    rejected: int = 0

    def as_dict(self) -> dict:
        hits = self.hits_memo + self.hits_store
        total = hits + self.misses + self.single_flight_joined
        return {
            "hits": {
                "total": hits,
                "memo": self.hits_memo,
                "store": self.hits_store,
            },
            "misses": self.misses,
            "single_flight_joined": self.single_flight_joined,
            "rejected": self.rejected,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }


class ExperimentService:
    """Long-lived experiment server: cache, dedup, background runs.

    Args:
        store_root: checkpoint-store directory -- the persistent
            content-addressed result cache.  Point it at a sweep's
            checkpoint dir to serve that sweep's cells without running
            anything.
        max_workers: background job threads.  The default of 1
            serializes simulations (they are CPU-bound; the HTTP
            threads stay responsive either way).
        workers_per_job: process-pool width handed to ``run_cells`` per
            job; 0 runs the cell in the job thread itself (default --
            a single service cell has nothing to shard).
        trajectory_path: ``BENCH_hotpath.json`` to expose under
            ``GET /trajectory`` (None disables the endpoint's data).
        run_cell: test seam -- replaces the default
            ``run_cells``-backed executor with any
            ``(ResolvedCell) -> CellOutcome`` callable.
    """

    def __init__(
        self,
        store_root: str | pathlib.Path = DEFAULT_STORE_DIR,
        *,
        max_workers: int = 1,
        workers_per_job: int = 0,
        trajectory_path: str | pathlib.Path | None = None,
        run_cell=None,
    ) -> None:
        self.store = SweepCheckpointStore(store_root)
        self.stats = CacheStats()
        self.trajectory_path = (
            pathlib.Path(trajectory_path)
            if trajectory_path is not None else None
        )
        self._workers_per_job = int(workers_per_job)
        self._run_cell = run_cell or self._run_via_run_cells
        self._jobs: dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(max_workers)),
            thread_name_prefix="repro-service",
        )
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop accepting jobs and wait for running ones to finish."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- default job executor ------------------------------------------
    def _run_via_run_cells(self, cell: ResolvedCell) -> CellOutcome:
        """Run one cell through the sweep orchestrator.

        ``resume=True`` makes re-runs idempotent (a record written by a
        concurrent sweep between enqueue and execution is loaded, not
        recomputed), and completed cells land in the checkpoint store
        and the result memo exactly like sweep cells.
        """
        outcomes = parallel.run_cells(
            [cell.spec],
            workers=self._workers_per_job,
            resume=True,
            checkpoint_dir=self.store.root,
        )
        return outcomes[0]

    def _execute(self, job: _Job) -> None:
        job.state = "running"
        job.started_at = time.monotonic()
        try:
            job.outcome = self._run_cell(job.cell)
            # uniform across executors (the default run_cells path does
            # this itself): later submits of the digest hit the memo
            runner.install_result(job.digest, job.outcome.result)
            job.state = "done"
        except Exception as exc:
            job.error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            job.state = "failed"
        finally:
            job.finished_at = time.monotonic()
            job.done.set()

    def _prune_finished(self) -> None:
        """Drop the oldest finished jobs past the bound (lock held)."""
        finished = [
            digest for digest, job in self._jobs.items()
            if job.state in ("done", "failed")
        ]
        for digest in finished[: max(0, len(finished) - MAX_FINISHED_JOBS)]:
            del self._jobs[digest]

    # -- cache probes ---------------------------------------------------
    def _lookup(self, digest: str) -> tuple[SystemResult, str] | None:
        """(result, source) from memo or store, else None."""
        hit = runner.cached_result(digest)
        if hit is not None:
            return hit, "memo"
        loaded = self.store.load(digest)
        if loaded is not None:
            result, _record = loaded
            runner.install_result(digest, result)
            return result, "store"
        return None

    # -- endpoints ------------------------------------------------------
    def submit(self, payload: object) -> tuple[int, dict]:
        """``POST /experiments``: cache hit, join, or enqueue."""
        try:
            cell = resolve_request(payload)
        except RequestError as exc:
            self.stats.rejected += 1
            return 400, {"error": str(exc)}
        digest = cell.digest
        assert digest is not None  # resolve_request guarantees it
        with self._lock:
            found = self._lookup(digest)
            if found is not None:
                result, source = found
                if source == "memo":
                    self.stats.hits_memo += 1
                else:
                    self.stats.hits_store += 1
                return 200, {
                    "digest": digest,
                    "status": "done",
                    "cached": True,
                    "source": source,
                    "cell": describe_cell(cell),
                    "result": result.to_record(),
                }
            job = self._jobs.get(digest)
            if job is not None and job.state in ("queued", "running"):
                # single-flight: join the in-flight run
                self.stats.single_flight_joined += 1
                return 202, {
                    "digest": digest,
                    "status": job.state,
                    "cached": False,
                    "joined": True,
                    "location": f"/experiments/{digest}",
                }
            if self._closed:
                return 503, {"error": "service is shutting down"}
            # miss (or retry of a failed job): enqueue a fresh run
            self._prune_finished()
            job = _Job(digest=digest, cell=cell)
            self._jobs[digest] = job
            self.stats.misses += 1
            self._executor.submit(self._execute, job)
        return 202, {
            "digest": digest,
            "status": "queued",
            "cached": False,
            "joined": False,
            "location": f"/experiments/{digest}",
        }

    def status(self, digest: str) -> tuple[int, dict]:
        """``GET /experiments/{digest}``: job state or cached record."""
        with self._lock:
            job = self._jobs.get(digest)
            if job is None:
                found = self._lookup(digest)
                if found is None:
                    return 404, {
                        "error": f"unknown experiment digest {digest!r}",
                        "hint": "POST the config to /experiments first",
                    }
        if job is None:
            # served purely from the cache (e.g. a sweep's checkpoint)
            result, source = found
            return 200, {
                "digest": digest,
                "status": "done",
                "source": source,
                "result": result.to_record(),
            }
        payload: dict = {
            "digest": digest,
            "status": job.state,
            "cell": describe_cell(job.cell),
        }
        if job.state == "queued":
            payload["queued_seconds"] = round(
                time.monotonic() - job.enqueued_at, 3
            )
        elif job.state == "running":
            assert job.started_at is not None
            payload["running_seconds"] = round(
                time.monotonic() - job.started_at, 3
            )
        elif job.state == "done":
            outcome = job.outcome
            assert outcome is not None
            payload["result"] = outcome.result.to_record()
            payload["source"] = outcome.source
            payload["seconds"] = round(outcome.seconds, 4)
            payload["rss_mb"] = round(outcome.rss_mb, 1)
        else:  # failed
            payload["error"] = job.error
            payload["retryable"] = True
            payload["hint"] = (
                "POST the same config again to enqueue a fresh run"
            )
        return 200, payload

    def cache_stats(self) -> tuple[int, dict]:
        """``GET /cache/stats``: counters, job states, store size."""
        with self._lock:
            by_state = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_state[job.state] += 1
            payload = {
                "cache": self.stats.as_dict(),
                "jobs": by_state,
                "store": {
                    "root": str(self.store.root),
                    "records": len(self.store),
                },
            }
        return 200, payload

    def trajectory(self, prefix: str | None = None) -> tuple[int, dict]:
        """``GET /trajectory``: BENCH_hotpath.json cells for dashboards.

        Returns, per cell (optionally filtered by name ``prefix``), the
        recorded series of ``(label, seconds)`` across trajectory
        points -- the data the perf dashboards plot.
        """
        if self.trajectory_path is None or not self.trajectory_path.exists():
            return 200, {"trajectory": None, "cells": {}}
        try:
            report = json.loads(self.trajectory_path.read_text())
        except (OSError, ValueError) as exc:
            return 500, {"error": f"unreadable trajectory file: {exc}"}
        series: dict[str, list[dict]] = {}
        for point in report.get("trajectory", []):
            for name, seconds in point.get("times", {}).items():
                if prefix is not None and not name.startswith(prefix):
                    continue
                series.setdefault(name, []).append({
                    "label": point.get("label"),
                    "mode": point.get("mode"),
                    "timestamp": point.get("timestamp"),
                    "seconds": seconds,
                })
        return 200, {
            "trajectory": str(self.trajectory_path),
            "prefix": prefix,
            "cells": series,
        }

    def health(self) -> tuple[int, dict]:
        """``GET /healthz``: liveness probe."""
        return 200, {"ok": True, "closed": self._closed}


__all__ = [
    "CacheStats",
    "DEFAULT_STORE_DIR",
    "ExperimentService",
    "JOB_STATES",
]
