"""Out-of-core measurement cells (the perf harness's ``ooc/*`` families).

The suite definition must stay runnable (known datasets, valid
backings, unique names), the RSS sampler must actually see anonymous
allocations, and the spawned-child round trip must produce a complete
measurement payload.  The child runs a *toy*-scale cell here so the
spawn + sampler + returned-payload machinery is exercised end to end
without mid/paper cost; the real mid/paper cells run in the perf
harness (``tools/perf_report.py ooc/mid``), not tier-1.
"""

import numpy as np
import pytest

from repro.experiments.ooc import (
    OOC_CELLS,
    OocCell,
    _AnonPeakSampler,
    _read_rss_kb,
    run_ooc_cell,
)
from repro.graph.datasets import DATASETS


class TestSuiteDefinition:
    def test_cells_reference_known_datasets_and_backings(self):
        for profile, cells in OOC_CELLS.items():
            for cell in cells:
                assert cell.dataset in DATASETS
                assert cell.tile_backing in ("memory", "disk")
                assert cell.scale == profile
                assert cell.name.startswith(
                    f"ooc/{profile}/{cell.tile_backing}/"
                )

    def test_cell_names_unique(self):
        names = [c.name for cells in OOC_CELLS.values() for c in cells]
        assert len(names) == len(set(names))

    def test_each_profile_compares_both_backings(self):
        for cells in OOC_CELLS.values():
            assert {c.tile_backing for c in cells} == {"memory", "disk"}

    def test_paper_suite_has_the_100m_edge_disk_cell(self):
        # KN28 at scale_shift=4 is ~2^24 vertices x avg degree 10 --
        # the 100M+-edge configuration only the disk backing should run
        kn28 = [c for c in OOC_CELLS["paper"] if c.dataset == "KN28"]
        assert len(kn28) == 1
        assert kn28[0].scale_shift == 4
        assert kn28[0].tile_backing == "disk"


class TestRssSampling:
    def test_read_rss_returns_positive_kb(self):
        anon_kb, rss_kb = _read_rss_kb()
        assert anon_kb > 0
        assert rss_kb >= anon_kb  # VmRSS = anon + file-backed + shmem

    def test_sampler_sees_anon_allocation(self):
        with _AnonPeakSampler() as sampler:
            base_mb = sampler.reset_mb()
            blob = np.ones(25 << 20, dtype=np.int64)  # 200 MB, touched
            peak_mb = sampler.reset_mb()
        assert blob[0] == 1
        assert peak_mb >= base_mb + 150

    def test_reset_starts_a_fresh_window(self):
        with _AnonPeakSampler() as sampler:
            first = sampler.reset_mb()
            second = sampler.reset_mb()
        assert first > 0
        # the second window holds no 200 MB transient, so its peak must
        # be near the live process size, not the first window's max
        assert second <= first + 50


class TestSpawnedCell:
    def test_toy_cell_round_trip(self, tmp_path):
        cell = OocCell(
            "ooc/test/disk/Piccolo/PR/UU",
            "Piccolo", "PR", "UU", "toy", "disk",
        )
        payload = run_ooc_cell(cell, tmp_path)
        assert payload["cell"] == cell.name
        assert payload["tile_backing"] == "disk"
        assert payload["seconds"] > 0
        assert payload["rss_anon_peak_mb"] > 0
        assert payload["materialize_seconds"] >= 0
        assert payload["total_ns"] > 0
        # the child materialised the graph memmap and built its own
        # external-sort tile store under the per-cell directory
        assert list((tmp_path / "graphs").glob("UU-s*"))
        assert list(
            (tmp_path / "ooc_test_disk_Piccolo_PR_UU" / "tiles")
            .glob("tiles-*")
        )

    def test_child_failure_raises(self, tmp_path):
        bad = OocCell(
            "ooc/test/disk/Piccolo/PR/NOPE",
            "Piccolo", "PR", "NOPE", "toy", "disk",
        )
        with pytest.raises(RuntimeError, match="child failed"):
            run_ooc_cell(bad, tmp_path)
