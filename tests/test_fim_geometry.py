"""FIM geometry across device grades (Sec. IV-B, Sec. VIII-B math).

The offset-broadcast arithmetic drives Figs. 15 and 20a: offsets are
duplicated across every chip of a rank, so narrower devices (more
chips) need more offset-write bursts, 32 B-burst devices move four
items per op, and the enhanced designs (11-bit offsets, long bursts)
cut the burst counts.  These tests pin the numbers the paper quotes.
"""

import pytest

from repro.dram.spec import DEVICES, DRAMConfig
from repro.utils.units import ceil_div


def config_for(grade, **kwargs):
    return DRAMConfig(spec=DEVICES[grade], channels=1, ranks=1, **kwargs)


class TestPaperNumbers:
    def test_x16_single_offset_burst(self):
        # Sec. IV-B: 16-bit offsets x 8 x 4 chips = 512 bits = one 64 B
        # burst on x16 DDR4.
        config = config_for("DDR4_2400_x16")
        assert config.spec.chips_per_rank == 4
        assert config.fim_offset_bursts == 1

    def test_x8_two_offset_bursts(self):
        # 8 chips: 1024 bits = two bursts.
        config = config_for("DDR4_2400_x8")
        assert config.spec.chips_per_rank == 8
        assert config.fim_offset_bursts == 2

    def test_x4_four_offset_bursts(self):
        config = config_for("DDR4_2400_x4")
        assert config.spec.chips_per_rank == 16
        assert config.fim_offset_bursts == 4

    def test_items_per_op_by_burst(self):
        assert config_for("DDR4_2400_x16").fim_items_per_op == 8
        for grade in ("LPDDR4_3200", "GDDR5_6000", "HBM2_2000"):
            assert config_for(grade).fim_items_per_op == 4

    def test_ideal_bandwidth_gain_x16(self):
        # 8 reads -> 1 offset burst + 1 data burst: the 4x of Sec. IV-B.
        config = config_for("DDR4_2400_x16")
        total = config.fim_offset_bursts + config.fim_data_bursts
        assert 8 / total == 4.0


#: (items, offset bursts, data bursts) per grade, long burst off and on
GEOMETRY = {
    "DDR4_2400_x16": ((8, 1, 1), (8, 1, 1)),
    "DDR4_2400_x8": ((8, 2, 1), (8, 1, 1)),
    "DDR4_2400_x4": ((8, 4, 1), (8, 2, 1)),
    "LPDDR4_3200": ((4, 1, 1), (8, 1, 2)),
    "GDDR5_6000": ((4, 1, 1), (8, 1, 2)),
    "HBM2_2000": ((4, 1, 1), (8, 1, 2)),
}


@pytest.mark.parametrize("grade", sorted(DEVICES))
def test_geometry_table(grade):
    """Every grade's operation geometry, with and without long bursts."""
    for long_burst, expected in zip((False, True), GEOMETRY[grade]):
        config = config_for(grade, long_burst_fim=long_burst)
        got = (config.fim_items_per_op, config.fim_offset_bursts,
               config.fim_data_bursts)
        assert got == expected, (grade, long_burst)


class TestEnhancedDesigns:
    def test_narrow_offsets_cut_x4_bursts(self):
        # Sec. VIII-B: 11-bit offsets on x4 (row < 8 KB needs < 11 bits).
        plain = config_for("DDR4_2400_x4")
        enhanced = config_for("DDR4_2400_x4", offset_bits=11)
        assert enhanced.fim_offset_bursts < plain.fim_offset_bursts

    def test_narrow_offsets_match_manual_math(self):
        enhanced = config_for("DDR4_2400_x4", offset_bits=11)
        spec = enhanced.spec
        bits = enhanced.fim_items_per_op * 11 * spec.chips_per_rank
        assert enhanced.fim_offset_bursts == ceil_div(bits, 64 * 8)

    def test_long_burst_doubles_hbm_items(self):
        plain = config_for("HBM2_2000")
        enhanced = config_for("HBM2_2000", long_burst_fim=True)
        assert plain.fim_items_per_op == 4
        assert enhanced.fim_items_per_op == 8

    def test_long_burst_improves_per_item_cost(self):
        plain = config_for("HBM2_2000")
        enhanced = config_for("HBM2_2000", long_burst_fim=True)

        def bursts_per_item(config):
            total = config.fim_offset_bursts + config.fim_data_bursts
            return total / config.fim_items_per_op

        assert bursts_per_item(enhanced) < bursts_per_item(plain)

    def test_offset_bits_bounds(self):
        with pytest.raises(ValueError, match="offset_bits"):
            config_for("DDR4_2400_x16", offset_bits=0)
        with pytest.raises(ValueError, match="offset_bits"):
            config_for("DDR4_2400_x16", offset_bits=17)


class TestWindowFeasibility:
    @pytest.mark.parametrize("grade", sorted(DEVICES))
    def test_window_vs_walk(self, grade):
        """Sec. VI: where items x tCCD exceeds tWR+tRP+tRCD the design
        'slightly adjusts tWR'; the spec must report which case holds."""
        config = config_for(grade)
        spec = config.spec
        expected = (config.fim_items_per_op * spec.tCCD
                    <= spec.fim_internal_window)
        assert config.fim_window_ok == expected

    def test_ddr4_2400_window_holds(self):
        # The paper's 39.84 ns <= 41.64 ns argument.
        spec = DEVICES["DDR4_2400_x16"]
        assert config_for("DDR4_2400_x16").fim_window_ok
        assert 8 * spec.tCCD == pytest.approx(40.0, abs=0.2)
        assert spec.fim_internal_window == pytest.approx(41.67, abs=0.2)
