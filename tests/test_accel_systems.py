"""Integration tests across the six accelerator systems."""

import pytest

from repro.accel.pipeline import PipelineConfig
from repro.accel.systems import SYSTEM_ORDER, SYSTEMS, make_system
from repro.dram.system import PhaseAccumulator
from repro.graph.generators import rmat
from repro.utils import units

CACHE_BYTES = 2048
MSHR_KW = dict(mshr_entries=32, fg_tag_bits=4)


@pytest.fixture(scope="module")
def graph():
    return rmat(2048, avg_degree=8.0, seed=13, name="itest")


def run(system_name, graph, algorithm="PR", iters=2, **kwargs):
    defaults = {"onchip_bytes": CACHE_BYTES}
    if system_name in ("Piccolo", "NMP"):
        defaults.update(MSHR_KW)
    defaults.update(kwargs)
    system = make_system(system_name, **defaults)
    return system.run(graph, algorithm, max_iterations=iters)


class TestAllSystemsRun:
    @pytest.mark.parametrize("system", SYSTEM_ORDER)
    def test_pagerank_completes(self, graph, system):
        result = run(system, graph)
        assert result.total_ns > 0
        assert result.iterations == 2
        assert result.edges_processed == 2 * graph.num_edges

    @pytest.mark.parametrize("system", ("GraphDyns (Cache)", "Piccolo"))
    @pytest.mark.parametrize("algorithm", ("BFS", "CC", "SSSP", "SSWP"))
    def test_active_vertex_algorithms(self, graph, system, algorithm):
        result = run(system, graph, algorithm=algorithm, iters=10)
        assert result.total_ns > 0
        assert result.iterations >= 1

    def test_unknown_system_rejected(self):
        with pytest.raises(KeyError, match="unknown system"):
            make_system("TPU")


class TestResultInvariants:
    def test_total_at_least_memory_and_compute(self, graph):
        for system in SYSTEM_ORDER:
            r = run(system, graph)
            assert r.total_ns >= r.memory_ns - 1e-6
            assert r.total_ns >= r.compute_ns - 1e-6

    def test_spm_systems_have_no_cache_traffic(self, graph):
        for system in ("Graphicionado", "GraphDyns (SPM)"):
            r = run(system, graph)
            assert r.cache_accesses == 0
            # Streams are 100 % useful modulo per-phase burst rounding.
            assert r.useful_fraction == pytest.approx(1.0, abs=0.01)

    def test_cache_systems_track_accesses(self, graph):
        for system in ("GraphDyns (Cache)", "NMP", "Piccolo"):
            r = run(system, graph)
            assert r.cache_accesses > 0
            assert 0.0 < r.cache_hit_rate < 1.0

    def test_piccolo_issues_fim_ops(self, graph):
        r = run("Piccolo", graph)
        assert r.dram.fim_gathers > 0
        assert r.mshr_ops > 0

    def test_conventional_issues_no_fim_ops(self, graph):
        r = run("GraphDyns (Cache)", graph)
        assert r.dram.fim_gathers == 0
        assert r.dram.fim_scatters == 0

    def test_pim_uses_internal_words(self, graph):
        r = run("PIM", graph)
        assert r.dram.internal_words >= graph.num_edges


class TestPaperShape:
    """First-order qualitative claims of the evaluation."""

    def test_piccolo_fewer_transactions_than_baseline(self, graph):
        base = run("GraphDyns (Cache)", graph, tile_scale=2)
        picc = run("Piccolo", graph, tile_scale=8)
        base_tx = base.dram.read_bursts + base.dram.write_bursts
        picc_tx = picc.dram.read_bursts + picc.dram.write_bursts
        assert picc_tx < base_tx  # Fig. 12: fewer off-chip transactions

    def test_piccolo_faster_than_baseline(self, graph):
        base = run("GraphDyns (Cache)", graph, tile_scale=2)
        picc = run("Piccolo", graph, tile_scale=8)
        assert picc.total_ns < base.total_ns  # Fig. 10

    def test_piccolo_beats_nmp(self, graph):
        nmp = run("NMP", graph, tile_scale=8)
        picc = run("Piccolo", graph, tile_scale=8)
        assert picc.total_ns <= nmp.total_ns * 1.05  # Fig. 10 ordering

    def test_piccolo_tolerates_larger_tiles(self, graph):
        """Fig. 17: the baseline prefers small tiles, Piccolo large ones."""
        base_small = run("GraphDyns (Cache)", graph, tile_scale=1)
        base_large = run("GraphDyns (Cache)", graph, tile_scale=16)
        picc_small = run("Piccolo", graph, tile_scale=1)
        picc_large = run("Piccolo", graph, tile_scale=16)
        base_ratio = base_large.total_ns / base_small.total_ns
        picc_ratio = picc_large.total_ns / picc_small.total_ns
        assert picc_ratio < base_ratio

    def test_prefetch_disabled_slows_down(self, graph):
        """Fig. 20b."""
        with_pf = run("Piccolo", graph)
        without = run(
            "Piccolo", graph, pipeline=PipelineConfig(prefetch=False)
        )
        assert without.total_ns > with_pf.total_ns

    def test_useful_fraction_improves_with_piccolo(self, graph):
        base = run("GraphDyns (Cache)", graph)
        picc = run("Piccolo", graph)
        assert picc.useful_fraction > base.useful_fraction


class TestTileWidthControl:
    def test_explicit_width_overrides_scale(self, graph):
        system = make_system(
            "Piccolo", onchip_bytes=CACHE_BYTES, **MSHR_KW
        )
        r = system.run(graph, "PR", max_iterations=1, tile_width=500)
        assert r.tile_width == 500

    def test_perfect_tiling_width(self, graph):
        r = run("Graphicionado", graph)
        assert r.tile_width == CACHE_BYTES // 8

    def test_pim_never_tiles(self, graph):
        r = run("PIM", graph, tile_scale=4)
        assert r.num_tiles == 1


class TestPIMChunks:
    """PIM streams its per-edge commands into the phase one chunk at a
    time, and the phase does not depend on where the chunks fall."""

    def test_no_add_exceeds_a_chunk(self, graph, monkeypatch):
        sizes = []
        real_add = PhaseAccumulator.add

        def add(self, addrs=None, **kwargs):
            sizes.append(0 if addrs is None else len(addrs))
            return real_add(self, addrs=addrs, **kwargs)

        monkeypatch.setattr(PhaseAccumulator, "add", add)
        monkeypatch.setattr(units, "CHUNK_ACCESSES", 1000)
        run("PIM", graph, iters=1)
        assert max(sizes) == 1000
        assert sum(sizes) == graph.num_edges

    def test_chunk_longer_than_the_tile_gives_the_same_record(
        self, graph, monkeypatch
    ):
        records = []
        for chunk in (1000, 1 << 30):
            monkeypatch.setattr(units, "CHUNK_ACCESSES", chunk)
            records.append(run("PIM", graph).to_record())
        assert records[0] == records[1]
