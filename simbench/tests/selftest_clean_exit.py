"""Self-tests of the benchmark itself (not part of the tier-1 suite).

From the repository root::

    PYTHONPATH=src python3 -m pytest simbench/tests/selftest_clean_exit.py

The clean-exit test runs the smallest workload briefly in a child
process tagged with a unique environment marker, then checks that the
run printed a correct result, that no process carrying the marker is
still alive, and that no temp tile-store directory remains.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import uuid

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = ROOT / "simbench"
sys.path.insert(0, str(BENCH))


def _processes_tagged(marker: bytes) -> list[int]:
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = pathlib.Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        if marker in environ.split(b"\0"):
            alive.append(int(entry))
    return alive


def _run(cwd: pathlib.Path, *args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "simbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_leaves_no_process_or_temp_dir(trace):
    marker = f"SIMBENCH_SELFTEST={uuid.uuid4().hex}"
    env = dict(os.environ, SIMBENCH_SELFTEST=marker.split("=", 1)[1])
    out = _run(ROOT, "--workload", "pr-uu-mid-s8-disk", "--seed", "1",
               "--seconds", "1", "--trace", trace, env=env)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert _processes_tagged(marker.encode()) == []
    assert not (ROOT / ".simbench" / "tmp").exists()


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "fig10-tw-toy", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout


@pytest.mark.parametrize("dataset,profile", [("TW", "toy"), ("UU", "mid"), ("SW", "mid")])
def test_seed_zero_reproduces_the_registry_graph(dataset, profile):
    from repro.experiments.runner import CellSpec, resolve_cell
    from repro.graph.datasets import DATASETS
    from workloads import GRAPH_BUILDERS

    shift = resolve_cell(CellSpec("Piccolo", "PR", dataset, scale=profile)).shift
    ours = GRAPH_BUILDERS[dataset](shift, 0)
    registry = DATASETS[dataset].build(shift)
    for name in ("indptr", "indices", "weights"):
        np.testing.assert_array_equal(getattr(ours, name), getattr(registry, name))
