"""Tests for the tile tuner and the baked tuning table."""

import pytest

from repro.accel.systems import make_system
from repro.accel.tuner import tune_tile_scale
from repro.experiments.tuning import TUNED_TILE_SCALES, tile_scale_for
from repro.graph.generators import rmat


class TestTuner:
    def test_returns_best_of_timings(self):
        graph = rmat(1024, avg_degree=6.0, seed=5, name="tune-test")

        def factory(scale):
            return make_system(
                "GraphDyns (Cache)", onchip_bytes=1024, tile_scale=scale
            )

        best, timings = tune_tile_scale(
            factory, graph, "PR", scales=(1, 4, 16), probe_iterations=1
        )
        assert best in (1, 4, 16)
        assert timings[best] == min(timings.values())
        assert set(timings) == {1, 4, 16}

    def test_empty_scales_rejected(self):
        with pytest.raises(ValueError):
            tune_tile_scale(lambda s: None, None, "PR", scales=())


class TestBakedTable:
    def test_lookup_falls_back_to_none(self):
        assert tile_scale_for("Piccolo", "PR", "no-such-dataset") is None

    def test_table_entries_are_positive_scales(self):
        for (system, algo, dataset), scale in TUNED_TILE_SCALES.items():
            assert scale >= 1, (system, algo, dataset)
            assert system in ("GraphDyns (Cache)", "NMP", "Piccolo")

    def test_real_world_grid_covered(self):
        for system in ("GraphDyns (Cache)", "Piccolo"):
            for algo in ("PR", "BFS", "CC", "SSSP", "SSWP"):
                for dataset in ("UU", "TW", "SW", "FS", "PP"):
                    assert tile_scale_for(system, algo, dataset) is not None
