"""The report generator and the perf harness in tools/."""

import json
import pathlib
import shlex
import sys
import time

import pytest

REPO = pathlib.Path(__file__).parent.parent
TOOLS = REPO / "tools"
sys.path.insert(0, str(TOOLS))

from generate_report import headline_numbers, parse_tables  # noqa: E402
from perf_report import (  # noqa: E402
    FAMILIES,
    check_regressions,
    main as perf_report_main,
    parse_args,
    reference_times,
    speed_scaled,
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
        cells = FAMILIES["ooc/paper"].cells
        assert any("KN28" in cell.name for cell in cells)
        for cell in cells:
            assert cell.name.startswith("ooc/paper/")
            assert cell.max_iterations is None
            assert cell.run.name == cell.name

    def test_ooc_scale_shift_lands_in_the_dataset_label(self):
        labels = {c.name: c.dataset for c in FAMILIES["ooc/paper"].cells}
        assert labels["ooc/paper/disk/Piccolo/PR/KN28s4"] == "KN28@s4"

    def test_scalar_and_seed_points_are_not_references(self):
        refs, _ = reference_times(
            {"trajectory": [
                {"label": "seed", "mode": "seed-checkout", "times": {"a": 10}},
                {"label": "s", "mode": "scalar", "times": {"a": 9}},
            ]}
        )
        assert refs == {}


class TestHostNormalisedGate:
    """``--check`` gates on reference seconds (host seconds scaled by the
    host-speed probe) where the reference point recorded them."""

    TRAJECTORY = {
        "workloads": {},
        "trajectory": [
            {"label": "other-host", "mode": "batched",
             "times": {"a": 1.0, "b": 1.0, "c": 1.0},
             "normalised_times": {"a": 2.0, "b": 2.0, "c": 2.0}},
            # a later point without reference seconds supersedes "c"'s
            {"label": "host-only", "mode": "batched", "times": {"c": 1.0}},
        ],
    }

    def test_reference_seconds_come_from_the_latest_point(self):
        refs, labels = reference_times(self.TRAJECTORY, "normalised_times")
        assert refs == {"a": 2.0, "b": 2.0}
        assert labels["c"] == "host-only"

    def test_a_slower_host_passes_on_reference_seconds(self):
        # 1.6x the host seconds, but the probe ran 1.45x slower too
        cells, ok = check_regressions(
            self.TRAJECTORY, {"a": 1.6}, ratio=1.3, normalised={"a": 2.2}
        )
        assert ok
        (cell,) = cells
        assert cell["slowdown"] == pytest.approx(1.6)
        assert cell["normalised_slowdown"] == pytest.approx(1.1)
        assert cell["measured_normalised_s"] == 2.2
        assert cell["reference_normalised_s"] == 2.0
        assert (cell["gated_on"], cell["status"]) == ("normalised", "ok")

    def test_a_regression_fails_in_reference_seconds(self):
        cells, ok = check_regressions(
            self.TRAJECTORY, {"a": 1.0}, ratio=1.3, normalised={"a": 2.8}
        )
        assert not ok
        assert (cells[0]["gated_on"], cells[0]["status"]) == (
            "normalised", "fail"
        )

    def test_host_seconds_gate_without_reference_seconds(self):
        # "b" was measured without a probe, "c"'s point has no reference
        cells, ok = check_regressions(
            self.TRAJECTORY, {"b": 1.4, "c": 1.2}, ratio=1.3,
            normalised={"c": 9.9},
        )
        assert not ok
        by_cell = {c["cell"]: c for c in cells}
        assert (by_cell["b"]["gated_on"], by_cell["b"]["status"]) == (
            "host", "fail"
        )
        assert (by_cell["c"]["gated_on"], by_cell["c"]["status"]) == (
            "host", "ok"
        )
        assert "normalised_slowdown" not in by_cell["c"]

    def test_speed_scaled_converts_host_to_reference_seconds(self):
        class ThreeTimesSlower:
            """A host-speed stand-in reporting 3 reference s per host s."""

            def run(self, fn, *args):
                start = time.perf_counter()
                result = fn(*args)
                return 3 * (time.perf_counter() - start), result

        result, scale = speed_scaled(ThreeTimesSlower(), time.sleep, 0.05)
        assert result is None
        assert scale == pytest.approx(3, rel=0.2)


def _ci_harness_invocations():
    """Every ``tools/perf_report.py`` argument list in the CI workflow,
    with folded (``run: >``) scalars joined into one line."""
    ci = REPO / ".github" / "workflows" / "ci.yml"
    lines = ci.read_text().splitlines()
    commands = []
    for i, line in enumerate(lines):
        key, _, value = line.strip().partition(" ")
        if key != "run:":
            continue
        if value != ">":
            commands.append(value)
            continue
        indent = len(line) - len(line.lstrip()) + 1
        folded = []
        for follow in lines[i + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) < indent:
                break
            folded.append(follow.strip())
        commands.append(" ".join(folded))
    return [
        shlex.split(command.split("tools/perf_report.py", 1)[1])
        for command in commands if "tools/perf_report.py" in command
    ]


class TestFamilies:
    """The harness's family registry and its one command line."""

    def test_cell_names_are_unique_and_carry_their_family_prefix(self):
        names = [c.name for f in FAMILIES.values() for c in f.cells]
        assert len(names) == len(set(names))
        for name, family in FAMILIES.items():
            prefixes = ("fig10/", "fig11/") if name == "full" else (
                f"{name}/",
            )
            assert family.cells
            assert all(c.name.startswith(prefixes) for c in family.cells)

    def test_workers_need_a_grid_family(self, tmp_path):
        for argv in (["ooc/mid", "--workers", "2"],
                     ["service", "--resume-from", str(tmp_path)]):
            with pytest.raises(SystemExit):
                parse_args(argv)
        args, _ = parse_args(["scale/mid", "--workers", "2",
                              "--resume-from", str(tmp_path)])
        assert args.workers == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(SystemExit):
            parse_args(["quick", "--workers", workers])

    def test_only_selects_worker_count_cells(self):
        _, cells = parse_args(
            ["parallel", "--only",
             "parallel/mid-fig10pr/w1,parallel/mid-fig10pr/w2"]
        )
        assert [c.run for c in cells] == [1, 2]
        with pytest.raises(SystemExit):
            parse_args(["parallel", "--only", "quick/"])

    def test_check_against_a_missing_trajectory_fails(self, tmp_path,
                                                      capsys):
        missing = tmp_path / "no-such-trajectory.json"
        with pytest.raises(SystemExit) as exc:
            perf_report_main(["engine-xval/toy", "--check",
                              "--json", str(missing)])
        assert exc.value.code != 0
        assert str(missing) in capsys.readouterr().err

    def test_ci_invocations_parse_and_gate(self):
        invocations = _ci_harness_invocations()
        assert len(invocations) == 6
        families = set()
        for argv in invocations:
            args, _ = parse_args(argv)
            assert args.check, argv
            families.add(args.family)
        assert families == {
            "quick", "engine-xval/mid", "service", "scale/paper",
            "engine-xval/paper", "ooc/paper",
        }

    def test_record_then_check_round_trip(self, tmp_path):
        trajectory = tmp_path / "trajectory.json"
        verdict_path = tmp_path / "verdict.json"
        assert perf_report_main(["engine-xval/toy", "--repeats", "1",
                                 "--json", str(trajectory)]) == 0
        report = json.loads(trajectory.read_text())
        (point,) = report["trajectory"]
        cells = [c.name for c in FAMILIES["engine-xval/toy"].cells]
        assert {"label", "mode", "timestamp", "family", "times",
                "peak_rss_mb", "details"} <= set(point)
        assert point["label"] == point["family"] == "engine-xval/toy"
        assert point["mode"] == "batched"
        assert sorted(point["times"]) == sorted(cells)
        assert point["peak_rss_mb"] > 0
        assert set(point["details"]) == set(cells)
        assert sorted(point["normalised_times"]) == sorted(cells)
        assert all(t > 0 for t in point["normalised_times"].values())
        assert set(report["workloads"]) == set(cells)

        rc = perf_report_main(["engine-xval/toy", "--repeats", "1",
                               "--json", str(trajectory), "--check",
                               "--report-out", str(verdict_path)])
        verdict = json.loads(verdict_path.read_text())
        assert rc == (0 if verdict["ok"] else 1)
        assert verdict["gate"]["ratio"] == FAMILIES["engine-xval/toy"].ratio
        assert sorted(c["cell"] for c in verdict["cells"]) == sorted(cells)
        assert {c["reference_label"] for c in verdict["cells"]} == {
            "engine-xval/toy"
        }
        assert {c["gated_on"] for c in verdict["cells"]} == {"normalised"}
        # --check records nothing
        assert len(json.loads(trajectory.read_text())["trajectory"]) == 1

    def test_closed_stdout_still_records(self, tmp_path, monkeypatch):
        """A reader that closes the pipe early (``... | head -8``) drops
        the rest of the output, never the measurement."""

        class ClosesAfter:
            """stdout whose reader goes away after ``lines`` lines."""

            def __init__(self, lines):
                self.lines = lines

            def write(self, text):
                if self.lines <= 0:
                    raise BrokenPipeError(32, "Broken pipe")
                self.lines -= text.count("\n")
                return len(text)

            def flush(self):
                if self.lines <= 0:
                    raise BrokenPipeError(32, "Broken pipe")

        trajectory = tmp_path / "trajectory.json"
        verdict_path = tmp_path / "verdict.json"
        monkeypatch.setattr(sys, "stdout", ClosesAfter(2))
        assert perf_report_main(["engine-xval/toy", "--repeats", "1",
                                 "--json", str(trajectory)]) == 0
        (point,) = json.loads(trajectory.read_text())["trajectory"]
        assert sorted(point["times"]) == sorted(
            c.name for c in FAMILIES["engine-xval/toy"].cells
        )

        monkeypatch.setattr(sys, "stdout", ClosesAfter(2))
        rc = perf_report_main(["engine-xval/toy", "--repeats", "1",
                               "--json", str(trajectory), "--check",
                               "--report-out", str(verdict_path)])
        verdict = json.loads(verdict_path.read_text())
        assert rc == (0 if verdict["ok"] else 1)
