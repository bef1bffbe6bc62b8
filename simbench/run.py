#!/usr/bin/env python3
"""Run one benchmark workload of the Piccolo simulator and print its metrics.

From the repository root::

    python3 simbench/run.py --workload fig10-tw-toy --seed 0 --seconds 20 --trace 0

One process, one caller, closed loop: the workload's cells run back to
back, each on a fresh system, in passes, until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
simbench/README.md).  Every cell run is checked against its expected
record; one that differs or raises counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

The simulator is imported from ``src/`` next to this directory; without
it the command exits with status 2 and prints no result.  If a thread,
child process or temp dir outlives the run, it exits with status 3.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".simbench"


def leftover_activity(tmp_root: pathlib.Path) -> list[str]:
    """Threads, child processes and temp dirs still alive at exit."""
    problems = []
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        problems.append(f"{threads - 1} threads besides the main one are alive")
    pid = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            problems.append(f"child process {entry} is alive")
    if tmp_root.exists():
        problems.append(f"temp dir {tmp_root} remains")
    return problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _terminate(signum, _frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: the simulator sources ({src / 'repro'}) are missing",
              file=sys.stderr)
        return 2
    # numerical libraries stay single-threaded: the run starts no threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    tmp_root = WORK_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_root)
    tempfile.tempdir = str(tmp_root)
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGTERM, _terminate)
    try:
        from harness import measure
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; "
                  f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        check, table, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            tmp_root, WORK_DIR / "spans",
        )
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        tempfile.tempdir = None
    problems = leftover_activity(tmp_root)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(f"output check: {check.failed} of {check.attempted} cell runs failed")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
