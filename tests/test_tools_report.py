"""The bench-output report generator in tools/."""

import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

from generate_report import headline_numbers, parse_tables  # noqa: E402
from perf_report import (  # noqa: E402
    check_regressions,
    main as perf_report_main,
    ooc_cells,
    reference_times,
)

SAMPLE = """\
some pytest noise
=== Fig. 10: overall speedup ===
     algorithm         dataset          system         speedup        total_ns
            PR              UU         Piccolo           1.880      332963.333
            GM               -         Piccolo           1.812             nan
            GM               -             NMP           1.234             nan
.
GM transaction reduction: 45.4 %
GM energy saving: 40.6 %
mean OLAP speedup: 3.80x
=== Fig. 12: normalised memory accesses ===
     algorithm         dataset          system      total_norm
            PR              UU         Piccolo           0.532
"""


class TestParseTables:
    def test_titles_extracted(self):
        tables = parse_tables(SAMPLE)
        assert "Fig. 10: overall speedup" in tables
        assert "Fig. 12: normalised memory accesses" in tables

    def test_rows_typed(self):
        tables = parse_tables(SAMPLE)
        rows = tables["Fig. 10: overall speedup"]
        assert rows[0]["speedup"] == pytest.approx(1.880)
        assert rows[0]["dataset"] == "UU"

    def test_ragged_lines_stop_table(self):
        tables = parse_tables(SAMPLE)
        rows = tables["Fig. 10: overall speedup"]
        # The lone "." progress marker must terminate the table.
        assert all("speedup" in r for r in rows)

    def test_multiword_system_names_merge(self):
        sample = (
            "=== Fig. 10: overall speedup ===\n"
            "     algorithm  dataset   system   speedup\n"
            "            PR       UU  GraphDyns (Cache)   1.000\n"
            "            PR       UU  GraphDyns (SPM)   0.900\n"
        )
        rows = parse_tables(sample)["Fig. 10: overall speedup"]
        assert rows[0]["system"] == "GraphDyns (Cache)"
        assert rows[1]["system"] == "GraphDyns (SPM)"
        assert rows[1]["speedup"] == pytest.approx(0.9)


class TestHeadlines:
    def test_fig10_gm_found(self):
        tables = parse_tables(SAMPLE)
        numbers = headline_numbers(tables, SAMPLE)
        assert numbers["fig10_gm"] == pytest.approx(1.812)

    def test_fig10_max_excludes_gm(self):
        tables = parse_tables(SAMPLE)
        numbers = headline_numbers(tables, SAMPLE)
        assert numbers["fig10_max"] == pytest.approx(1.880)

    def test_percent_patterns(self):
        numbers = headline_numbers({}, SAMPLE)
        assert numbers["fig12_reduction"] == pytest.approx(0.454)
        assert numbers["fig14_saving"] == pytest.approx(0.406)
        assert numbers["fig19b_mean"] == pytest.approx(3.80)

    def test_missing_are_absent(self):
        numbers = headline_numbers({}, "nothing here")
        assert "fig12_reduction" not in numbers


class TestPerfRegressionGate:
    """tools/perf_report.py --check semantics (the CI gate)."""

    TRAJECTORY = {
        "workloads": {},
        "trajectory": [
            {"label": "seed", "mode": "seed-checkout",
             "times": {"a": 10.0, "b": 8.0}},
            {"label": "old-batched", "mode": "batched",
             "times": {"a": 2.0, "b": 1.0}},
            {"label": "scalar-later", "mode": "scalar",
             "times": {"a": 9.0}},
            {"label": "new-batched", "mode": "batched",
             "times": {"a": 1.0}},
        ],
    }

    def test_reference_is_latest_batched_point(self):
        refs, labels = reference_times(self.TRAJECTORY)
        assert refs == {"a": 1.0, "b": 1.0}
        assert labels == {"a": "new-batched", "b": "old-batched"}

    def test_within_ratio_passes(self):
        cells, ok = check_regressions(
            self.TRAJECTORY, {"a": 1.2, "b": 1.25}, ratio=1.3
        )
        assert ok
        assert {c["cell"]: c["status"] for c in cells} == {
            "a": "ok", "b": "ok",
        }

    def test_slowdown_fails(self):
        cells, ok = check_regressions(
            self.TRAJECTORY, {"a": 1.4, "b": 1.0}, ratio=1.3
        )
        assert not ok
        by_cell = {c["cell"]: c for c in cells}
        assert by_cell["a"]["status"] == "fail"
        assert by_cell["a"]["slowdown"] == pytest.approx(1.4)
        assert by_cell["a"]["reference_label"] == "new-batched"
        assert by_cell["b"]["status"] == "ok"

    def test_unrecorded_cell_is_no_baseline_not_failure(self):
        cells, ok = check_regressions(
            self.TRAJECTORY, {"brand-new": 99.0}, ratio=1.3
        )
        assert ok
        assert cells == [
            {"cell": "brand-new", "measured_s": 99.0,
             "status": "no-baseline"},
        ]

    def test_ooc_cells_use_the_common_tuple_shape(self):
        cells = ooc_cells("paper")
        assert any("KN28" in name for name, *_ in cells)
        for name, row, algorithm, dataset, iters, kwargs in cells:
            assert name.startswith("ooc/paper/")
            assert iters is None
            assert kwargs == {}

    def test_ooc_scale_shift_lands_in_the_dataset_label(self):
        labels = {name: ds for name, _, _, ds, *_ in ooc_cells("paper")}
        assert labels["ooc/paper/disk/Piccolo/PR/KN28s4"] == "KN28@s4"

    def test_ooc_is_its_own_suite(self):
        for conflict in (["--quick"], ["--profile", "mid"],
                         ["--workers", "2"]):
            with pytest.raises(SystemExit):
                perf_report_main(["--ooc", "mid", *conflict])

    def test_scalar_and_seed_points_are_not_references(self):
        refs, _ = reference_times(
            {"trajectory": [
                {"label": "seed", "mode": "seed-checkout", "times": {"a": 10}},
                {"label": "s", "mode": "scalar", "times": {"a": 9}},
            ]}
        )
        assert refs == {}
