"""Cross-validation between the engine and the analytic phase model."""

import numpy as np
import pytest

from repro.dram.engine import xval
from repro.dram.engine.workloads import random_mix, strided_addresses
from repro.dram.engine.xval import (
    ENGINE_XVAL_PROFILES,
    ENGINE_XVAL_WORKLOADS,
    XValPoint,
    compare_conventional,
    compare_fim,
    microbench_speedups,
    run_engine_xval_cell,
)
from repro.dram.spec import default_config

from reference_engine import ReferenceDRAMEngine


@pytest.fixture(scope="module")
def config():
    return default_config()


class TestAgreementBands:
    """The engine pays command-bus and CAS overheads the analytic model
    hides, so absolute agreement is loose; it must stay in a stable
    band for bandwidth-bound workloads."""

    def test_sequential_band(self, config):
        addrs = np.arange(0, 64 * 2000, 64, dtype=np.int64)
        point = compare_conventional(config, addrs)
        assert 0.5 < point.ratio < 3.0

    def test_random_band(self, config):
        addrs, is_write = random_mix(config, 1500, seed=11)
        point = compare_conventional(config, addrs, is_write)
        assert 0.4 < point.ratio < 3.0

    def test_fim_band(self, config):
        addrs = strided_addresses(config, 1 << 18, 8, single_row=True)
        point = compare_fim(config, addrs)
        assert 0.5 < point.ratio < 3.0

    def test_ratio_stable_across_strides(self, config):
        ratios = []
        for stride in (4, 8, 16, 32):
            addrs = strided_addresses(config, 1 << 17, stride, True)
            ratios.append(compare_conventional(config, addrs).ratio)
        assert max(ratios) / min(ratios) < 1.8


class TestSpeedupAgreement:
    """Model constants cancel in the FIM-vs-conventional *ratio*, the
    quantity Fig. 9 actually reports -- it must agree tightly."""

    def test_stride8_speedup_near_4x(self, config):
        rows = microbench_speedups(config, 1 << 18)
        by_stride = {r["stride"]: r for r in rows}
        assert 3.0 < by_stride[8]["speedup"] <= 4.3

    def test_stride4_halved_penalty(self, config):
        # Two 8 B words share a burst at stride 4 (Sec. VII-B).
        rows = microbench_speedups(config, 1 << 18)
        by_stride = {r["stride"]: r for r in rows}
        assert by_stride[4]["speedup"] < by_stride[8]["speedup"]
        assert 1.5 < by_stride[4]["speedup"] < 2.6

    def test_engine_vs_analytic_speedup_close(self, config):
        for stride in (8, 16):
            addrs = strided_addresses(config, 1 << 17, stride, True)
            conv = compare_conventional(config, addrs)
            fim = compare_fim(config, addrs)
            engine_speedup = conv.engine_ns / fim.engine_ns
            analytic_speedup = conv.analytic_ns / fim.analytic_ns
            assert engine_speedup == pytest.approx(
                analytic_speedup, rel=0.35
            )

    def test_multi_row_walk_pays_activations(self, config):
        # The multi-row series must genuinely span rows: the engine's
        # conventional run should activate far more often than the
        # single-row series (which opens each bank's row once).
        from repro.dram.engine import DRAMEngine
        from repro.dram.engine.workloads import conventional_requests

        def acts(single_row):
            addrs = strided_addresses(config, 1 << 20, 8, single_row)
            engine = DRAMEngine(config)
            requests, route = conventional_requests(config, addrs)
            return engine.run(requests, route).stats.acts

        assert acts(False) > 4 * acts(True)


class TestCommandCounts:
    def test_engine_reports_commands(self, config):
        addrs = np.arange(0, 64 * 100, 64, dtype=np.int64)
        point = compare_conventional(config, addrs)
        # At least one column command per request.
        assert point.engine_commands >= 100


class TestRatioGuard:
    """Regression: a zero analytic duration used to yield a silent
    ``inf`` ratio that poisoned downstream band assertions; it must be
    a loud error instead."""

    def test_zero_analytic_raises(self):
        point = XValPoint("degenerate", 12.0, 0.0, 3)
        with pytest.raises(ValueError, match="degenerate"):
            point.ratio

    def test_nonzero_analytic_divides(self):
        assert XValPoint("ok", 12.0, 6.0, 3).ratio == 2.0


class TestEngineXvalCells:
    """The trajectory-cell API behind the perf harness's
    ``engine-xval/*`` families."""

    def test_toy_grid_runs_and_validates(self):
        for workload in ENGINE_XVAL_WORKLOADS:
            result = run_engine_xval_cell("toy", workload)
            assert result["cell"] == f"engine-xval/toy/{workload}"
            assert result["seconds"] > 0
            assert result["commands"] > 0
            assert 0.4 < result["ratio"] < 3.0, (workload, result["ratio"])

    def test_engine_mode_is_observable_only_in_wall_clock(self,
                                                          monkeypatch):
        batched = run_engine_xval_cell("toy", "fim-gather")
        monkeypatch.setattr(xval, "DRAMEngine", ReferenceDRAMEngine)
        scalar = run_engine_xval_cell("toy", "fim-gather")
        assert batched["cycles"] == scalar["cycles"]
        assert batched["commands"] == scalar["commands"]
        assert batched["engine_ns"] == scalar["engine_ns"]
        assert batched["ratio"] == scalar["ratio"]

    def test_profiles_scale_monotonically(self):
        scales = [ENGINE_XVAL_PROFILES[p]["total_bytes"]
                  for p in ("toy", "mid", "paper")]
        assert scales == sorted(scales) and len(set(scales)) == 3

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            run_engine_xval_cell("huge", "mix")
        with pytest.raises(ValueError, match="workload"):
            run_engine_xval_cell("toy", "bogus")
