"""Cross-validation bench: command-level engine vs analytic model.

Not a paper figure -- this regenerates the Fig. 9 microbenchmark series
on the command-level engine (full JEDEC constraint set, refresh, bus
arbitration) and reports, per stride, the FIM speedup measured by each
model.  The analytic model carries the figure sweeps; this bench is the
evidence that its shortcuts do not bend the headline ratios.  The mid
smoke also reruns every mid cell on the scalar oracle
(``tests/reference_engine.py``) and requires identical results.
"""

import pathlib
import sys
import time

import pytest

from repro.dram.engine import xval
from repro.dram.engine.xval import (
    ENGINE_XVAL_WORKLOADS,
    microbench_speedups,
    run_engine_xval_cell,
)
from repro.dram.spec import default_config

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from reference_engine import ReferenceDRAMEngine  # noqa: E402


def figure_engine_xval():
    config = default_config()
    rows = []
    for single_row in (True, False):
        series = "single-row" if single_row else "multi-row"
        for row in microbench_speedups(config, 1 << 18,
                                       single_row=single_row):
            rows.append({
                "series": series,
                "stride": row["stride"],
                "engine_speedup": row["speedup"],
                "conv_vs_analytic": row["conv_ratio_vs_analytic"],
                "fim_vs_analytic": row["fim_ratio_vs_analytic"],
            })
    return rows


def test_engine_xval(run_figure):
    rows = run_figure("Engine cross-validation: Fig. 9 on the "
                      "command-level engine", figure_engine_xval)
    single = {r["stride"]: r for r in rows if r["series"] == "single-row"}
    # The FIM gain peaks near 4x at stride 8 on the engine too.
    assert single[8]["engine_speedup"] > 3.0
    # Engine/analytic duration ratios stay in a stable band.
    for row in rows:
        assert 0.4 < row["conv_vs_analytic"] < 3.0
        assert 0.4 < row["fim_vs_analytic"] < 3.0


def test_engine_xval_mid_profile_smoke():
    """Tier-1 smoke for the ``engine-xval/mid`` trajectory cells.

    The whole mid grid must fit a CI wall budget on the engine, every
    cell's engine/analytic ratio must sit in the stable band, and every
    cell must agree bit-for-bit with the scalar oracle (identical cycle
    count, command count and duration -- an always-on shadow of the
    differential suite on streams of 2k-5k commands, where the
    hypothesis cases stop at 200 requests).
    """
    start = time.perf_counter()
    results = {
        workload: run_engine_xval_cell("mid", workload)
        for workload in ENGINE_XVAL_WORKLOADS
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"mid engine-xval grid took {elapsed:.1f}s"
    for workload, result in results.items():
        assert 0.4 < result["ratio"] < 3.0, (workload, result["ratio"])
        assert result["commands"] > 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(xval, "DRAMEngine", ReferenceDRAMEngine)
        for workload, batched in results.items():
            scalar = run_engine_xval_cell("mid", workload)
            for key in ("cycles", "commands", "engine_ns"):
                assert scalar[key] == batched[key], (workload, key)
