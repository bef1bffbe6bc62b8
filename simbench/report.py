#!/usr/bin/env python3
"""Run every benchmark workload once and print its metrics side by side.

From the repository root::

    python3 simbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own ``simbench/run.py`` process, one after the
other; each is waited for before the next starts.  The table lists every
metric with its unit, then the output check (failed of attempted cell
runs) per workload.  Exits non-zero if any run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results, status = {}, 0
    for name in names:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        if out.returncode != 0:
            print(f"{name}: exited {out.returncode}\n{out.stderr}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(out.stdout.splitlines()[-1])
        status |= not results[name]["correct"]
    metrics = list(dict.fromkeys(m for r in results.values() for m in r["metrics"]))
    print(f"{'metric':<28}" + "".join(f"{n:>18}" for n in results))
    for metric in metrics:
        unit = next(r["metrics"][metric]["unit"] for r in results.values()
                    if metric in r["metrics"])
        cells = "".join(f"{r['metrics'][metric]['value']:>18.6g}" for r in results.values())
        print(f"{metric + ' (' + unit + ')':<28}{cells}")
    print(f"{'failed / attempted':<28}" + "".join(
        f"{str(r['failed']) + ' / ' + str(r['attempted']):>18}" for r in results.values()))
    return status


if __name__ == "__main__":
    sys.exit(main())
