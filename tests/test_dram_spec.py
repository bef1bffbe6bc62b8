"""Tests for DRAM device specs and FIM geometry (Sec. IV-B / VI / VIII-B)."""

import pytest

from repro.dram.spec import DEVICES, DRAMConfig, default_config


def config_for(grade, **kwargs):
    return DRAMConfig(spec=DEVICES[grade], channels=1, ranks=1, **kwargs)


class TestDeviceGeometry:
    def test_all_paper_devices_present(self):
        for name in ("DDR4_2400_x16", "DDR4_2400_x8", "DDR4_2400_x4",
                     "LPDDR4_3200", "GDDR5_6000", "HBM2_2000"):
            assert name in DEVICES

    def test_chips_per_rank(self):
        assert DEVICES["DDR4_2400_x16"].chips_per_rank == 4
        assert DEVICES["DDR4_2400_x8"].chips_per_rank == 8
        assert DEVICES["DDR4_2400_x4"].chips_per_rank == 16

    def test_ddr4_burst_is_64b(self):
        assert DEVICES["DDR4_2400_x16"].burst_bytes == 64

    def test_small_burst_devices(self):
        for name in ("LPDDR4_3200", "GDDR5_6000", "HBM2_2000"):
            assert DEVICES[name].burst_bytes == 32

    def test_ddr4_2400_peak_bandwidth(self):
        assert DEVICES["DDR4_2400_x16"].peak_bandwidth_gbps == pytest.approx(19.2)

    def test_tburst_is_four_clocks_ddr4(self):
        spec = DEVICES["DDR4_2400_x16"]
        assert spec.tBURST == pytest.approx(4 / 1.2, rel=1e-6)

    def test_validate_accepts_all(self):
        for spec in DEVICES.values():
            spec.validate()


class TestFimWindow:
    """The Sec. VI feasibility numbers."""

    def test_eight_tccd_fits_window_ddr4_2400(self):
        spec = DEVICES["DDR4_2400_x16"]
        # 8 x tCCD_L ~= 40 ns vs tWR + tRP + tRCD ~= 41.7 ns
        assert 8 * spec.tCCD == pytest.approx(40.0, abs=0.2)
        assert spec.fim_internal_window == pytest.approx(41.67, abs=0.1)
        assert config_for("DDR4_2400_x16").fim_window_ok

    def test_all_devices_window_ok(self):
        for name in DEVICES:
            assert config_for(name).fim_window_ok, name


class TestFimGeometry:
    """Offset-burst counts per device width (Fig. 15 / Sec. VIII-B)."""

    def test_offset_bursts_by_width(self):
        # 8 offsets x 16 b duplicated across chips, over 512-bit bursts
        assert config_for("DDR4_2400_x16").fim_offset_bursts == 1
        assert config_for("DDR4_2400_x8").fim_offset_bursts == 2
        assert config_for("DDR4_2400_x4").fim_offset_bursts == 4

    def test_enhanced_11bit_offsets_reduce_x4_bursts(self):
        assert config_for("DDR4_2400_x4", offset_bits=11).fim_offset_bursts == 3

    def test_small_burst_devices_move_four_items(self):
        for name in ("LPDDR4_3200", "GDDR5_6000", "HBM2_2000"):
            assert config_for(name).fim_items_per_op == 4

    def test_hbm_two_transactions_per_op(self):
        config = config_for("HBM2_2000")
        assert config.fim_offset_bursts + config.fim_data_bursts == 2

    def test_enhanced_long_burst_hbm(self):
        config = DRAMConfig(
            spec=DEVICES["HBM2_2000"], channels=1, ranks=1, long_burst_fim=True
        )
        assert config.fim_items_per_op == 8
        # 8 items in (1 long offset burst + 64 B of data) vs 2 ops of 4.
        baseline = DRAMConfig(spec=DEVICES["HBM2_2000"], channels=1, ranks=1)
        per_item_enh = (
            config.fim_offset_bursts + config.fim_data_bursts
        ) / config.fim_items_per_op
        per_item_base = (
            baseline.fim_offset_bursts + baseline.fim_data_bursts
        ) / baseline.fim_items_per_op
        assert per_item_enh < per_item_base


class TestDRAMConfig:
    def test_default_is_paper_setup(self):
        config = default_config()
        assert config.spec.name == "DDR4_2400_x16"
        assert config.channels == 1
        assert config.ranks == 4

    def test_total_banks(self, ddr4_config):
        assert ddr4_config.total_banks == 32

    def test_overrides(self):
        config = default_config(ranks=2)
        assert config.ranks == 2

    def test_invalid_offset_bits(self):
        with pytest.raises(ValueError):
            DRAMConfig(spec=DEVICES["DDR4_2400_x16"], offset_bits=0)

    def test_non_power_of_two_channels_rejected(self):
        with pytest.raises(ValueError):
            DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=3)
