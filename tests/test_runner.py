"""Tests for the experiment runner and figure helpers (fast subsets)."""

import dataclasses

import pytest

from repro.accel.base import SystemResult
from repro.experiments.config import (
    DEFAULT_SCALE,
    ExperimentScale,
    PROFILES,
    get_profile,
)
from repro.experiments.runner import (
    clear_result_cache,
    geomean_speedups,
    run_system,
    speedup_table,
)
from repro.utils import units


class TestRunSystem:
    def test_returns_result(self):
        result = run_system("Piccolo", "PR", "UU", max_iterations=1)
        assert isinstance(result, SystemResult)
        assert result.system == "Piccolo"
        assert result.dataset == "UU"

    def test_unknown_system(self):
        with pytest.raises(KeyError, match="unknown system"):
            run_system("FPGA", "PR", "UU")

    def test_memoisation_returns_same_object(self):
        clear_result_cache()
        a = run_system("PIM", "PR", "UU", max_iterations=1)
        b = run_system("PIM", "PR", "UU", max_iterations=1)
        assert a is b

    def test_tile_scale_busts_cache(self):
        clear_result_cache()
        a = run_system("Piccolo", "PR", "UU", max_iterations=1, tile_scale=1)
        b = run_system("Piccolo", "PR", "UU", max_iterations=1, tile_scale=4)
        assert a is not b
        assert a.tile_width != b.tile_width

    def test_iteration_cap_from_scale(self):
        clear_result_cache()
        result = run_system("PIM", "PR", "UU")
        assert result.iterations <= DEFAULT_SCALE.iterations_for("PR")

    def test_spm_gets_spm_budget(self):
        result = run_system("Graphicionado", "PR", "UU", max_iterations=1)
        assert result.onchip_bytes == DEFAULT_SCALE.spm_bytes


class TestSpeedupTable:
    def _fake(self, system, ns):
        return SystemResult(system=system, algorithm="PR", dataset="X",
                            total_ns=ns)

    def test_normalises_to_baseline(self):
        results = {
            ("GraphDyns (Cache)", "PR", "X"): self._fake("b", 100.0),
            ("Piccolo", "PR", "X"): self._fake("p", 50.0),
        }
        table = speedup_table(results)
        assert table[("Piccolo", "PR", "X")] == pytest.approx(2.0)
        assert table[("GraphDyns (Cache)", "PR", "X")] == pytest.approx(1.0)

    def test_missing_baseline_raises(self):
        results = {("Piccolo", "PR", "X"): self._fake("p", 50.0)}
        with pytest.raises(KeyError, match="missing baseline"):
            speedup_table(results)

    def test_zero_time_baseline_raises(self):
        results = {
            ("GraphDyns (Cache)", "PR", "X"): self._fake("b", 0.0),
            ("Piccolo", "PR", "X"): self._fake("p", 50.0),
        }
        with pytest.raises(ValueError, match="cannot be normalised"):
            speedup_table(results)

    def test_zero_time_result_raises(self):
        results = {
            ("GraphDyns (Cache)", "PR", "X"): self._fake("b", 100.0),
            ("Piccolo", "PR", "X"): self._fake("p", 0.0),
        }
        with pytest.raises(ValueError, match="undefined"):
            speedup_table(results)

    def test_geomean_by_system(self):
        table = {
            ("Piccolo", "PR", "X"): 2.0,
            ("Piccolo", "PR", "Y"): 8.0,
            ("PIM", "PR", "X"): 0.5,
        }
        gm = geomean_speedups(table)
        assert gm["Piccolo"] == pytest.approx(4.0)
        assert gm["PIM"] == pytest.approx(0.5)


class TestExperimentScale:
    def test_default_iterations(self):
        scale = ExperimentScale()
        assert scale.iterations_for("PR") == 3
        assert scale.iterations_for("BFS") == 40
        assert scale.iterations_for("UNKNOWN") == 40

    def test_dram_default_matches_paper(self):
        config = DEFAULT_SCALE.dram()
        assert config.ranks == 4
        assert config.spec.name == "DDR4_2400_x16"

    def test_dram_overrides(self):
        config = DEFAULT_SCALE.dram(ranks=2)
        assert config.ranks == 2


class TestScaleProfiles:
    def test_registry_names(self):
        assert set(PROFILES) == {"toy", "mid", "paper"}
        for name, profile in PROFILES.items():
            assert profile.name == name

    def test_toy_profile_is_the_default_scale(self):
        # The profile refactor must be a pure refactor at toy scale.
        assert PROFILES["toy"] == DEFAULT_SCALE == ExperimentScale()

    def test_paper_profile_matches_paper_capacities(self):
        paper = PROFILES["paper"]
        assert paper.piccolo_cache_bytes == 4 * 1024 * 1024
        assert paper.spm_bytes == 4_718_592  # 4.5 MB
        assert paper.mshr_entries == 4096
        assert paper.fg_tag_bits == 8
        assert paper.replay_capacity == 0

    def test_get_profile_resolves_names_and_passthrough(self):
        assert get_profile("mid") is PROFILES["mid"]
        custom = ExperimentScale(name="custom", scale_shift=14)
        assert get_profile(custom) is custom
        with pytest.raises(KeyError, match="unknown scale profile"):
            get_profile("huge")

    def test_describe_is_flat(self):
        for profile in PROFILES.values():
            knobs = profile.describe()
            assert knobs["name"] == profile.name
            assert "max_iterations" not in knobs
            assert all(not isinstance(v, dict) for v in knobs.values())

    def test_run_system_accepts_profile_name(self):
        clear_result_cache()
        by_name = run_system("Piccolo", "PR", "UU", scale="toy",
                             max_iterations=1)
        by_default = run_system("Piccolo", "PR", "UU", max_iterations=1)
        assert by_name is by_default  # identical cell -> memoised hit

    def test_chunked_run_is_bit_identical(self, monkeypatch):
        """64-access chunks against one chunk longer than any tile."""
        runs = []
        for chunk in (1 << 20, 64):
            monkeypatch.setattr(units, "CHUNK_ACCESSES", chunk)
            clear_result_cache()
            runs.append(run_system("Piccolo", "PR", "UU", max_iterations=1))
        clear_result_cache()
        whole, chunked = runs
        assert whole is not chunked
        assert whole.to_record() == chunked.to_record()
        assert whole.total_ns == chunked.total_ns
        assert whole.cache_hits == chunked.cache_hits
        assert whole.cache_misses == chunked.cache_misses
        assert whole.dram.read_bursts == chunked.dram.read_bursts
        assert whole.dram.write_bursts == chunked.dram.write_bursts
        assert whole.mshr_ops == chunked.mshr_ops

    def test_custom_profile_scales_graph_and_capacities(self):
        clear_result_cache()
        tiny = dataclasses.replace(
            PROFILES["toy"], name="tiny", scale_shift=14,
            piccolo_cache_bytes=512, cache_ways=4,
        )
        result = run_system("Piccolo", "PR", "UU", scale=tiny,
                            max_iterations=1)
        default = run_system("Piccolo", "PR", "UU", max_iterations=1)
        assert result.onchip_bytes == 512
        assert result.tile_width < default.tile_width


class TestTileBacking:
    def test_backing_is_not_part_of_the_cell_digest(self, tmp_path):
        """Disk-backed tiles are bit-identical to in-memory ones, so
        backing is an execution detail: memo hits and sweep checkpoints
        are shared across backings."""
        from repro.experiments.runner import CellSpec, resolve_cell

        base = CellSpec(system="Piccolo", algorithm="PR", dataset="UU")
        disk = dataclasses.replace(base, tile_backing="disk")
        store = dataclasses.replace(
            base,
            scale=dataclasses.replace(
                PROFILES["toy"],
                tile_backing="disk",
                tile_store_root=str(tmp_path),
            ),
        )
        digests = {resolve_cell(s).digest for s in (base, disk, store)}
        assert len(digests) == 1 and None not in digests

    def test_replay_capacity_is_not_part_of_the_cell_digest(self):
        """The replay memo is exact (tests/test_stationary_replay.py),
        so its capacity is an execution detail like the backing; a
        capacity that changes results, the cache size, still splits."""
        from repro.experiments.runner import CellSpec, resolve_cell

        def digest(**knobs):
            scale = dataclasses.replace(PROFILES["toy"], **knobs)
            return resolve_cell(
                CellSpec(system="Piccolo", algorithm="PR", dataset="UU",
                         scale=scale)
            ).digest

        base = digest()
        assert base is not None
        assert digest(replay_capacity=0) == base
        assert digest(replay_capacity=8) == base
        assert digest(piccolo_cache_bytes=2048) != base

    def test_disk_backed_run_is_bit_identical(self, tmp_path):
        clear_result_cache()
        mem = run_system("Piccolo", "PR", "SW", max_iterations=2)
        clear_result_cache()
        scale = dataclasses.replace(
            PROFILES["toy"], tile_store_root=str(tmp_path)
        )
        dsk = run_system("Piccolo", "PR", "SW", max_iterations=2,
                         scale=scale, tile_backing="disk")
        assert mem is not dsk
        assert mem.to_record() == dsk.to_record()

    def test_profile_tile_backing_flows_to_system(self, tmp_path):
        from repro.experiments.runner import CellSpec, resolve_cell

        scale = dataclasses.replace(
            PROFILES["toy"], tile_backing="disk",
            tile_store_root=str(tmp_path),
        )
        cell = resolve_cell(
            CellSpec(system="Piccolo", algorithm="PR", dataset="UU",
                     scale=scale)
        )
        assert cell.make_kwargs["tile_backing"] == "disk"
        assert cell.make_kwargs["tile_store_root"] == str(tmp_path)


class TestFigureHelpers:
    def test_figure_3_small(self):
        from repro.experiments.figures import figure_3

        rows = figure_3(datasets=("SW",))
        assert len(rows) == 2
        modes = {r["mode"] for r in rows}
        assert modes == {"Non-Tiling", "Perfect Tiling"}

    def test_figure_10_small(self):
        from repro.experiments.figures import figure_10

        rows = figure_10(
            datasets=("UU",), algorithms=("BFS",),
            systems=("GraphDyns (Cache)", "Piccolo"),
        )
        gm_rows = [r for r in rows if r["algorithm"] == "GM"]
        assert len(gm_rows) == 2
        cell = {r["system"]: r["speedup"] for r in rows
                if r["algorithm"] == "BFS"}
        assert cell["GraphDyns (Cache)"] == pytest.approx(1.0)

    def test_figure_19b_small(self):
        from repro.experiments.figures import figure_19b

        rows = figure_19b(num_rows=1 << 12)
        assert {r["query"] for r in rows} == {"Qa", "Qb", "Qc", "Qd"}
