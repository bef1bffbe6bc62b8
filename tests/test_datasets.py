"""Tests for the scaled dataset registry."""

import hashlib

import numpy as np
import pytest

from repro.graph import datasets
from repro.graph.datasets import DATASETS, REAL_WORLD, SYNTHETIC, load_dataset


class TestRegistry:
    def test_all_paper_datasets_present(self):
        for name in ("UU", "SW", "TW", "FS", "PP",
                     "WS26", "WS27", "KN25", "KN26", "KN27", "KN28"):
            assert name in DATASETS

    def test_real_world_ordering_matches_paper(self):
        assert REAL_WORLD == ("UU", "TW", "SW", "FS", "PP")

    def test_synthetic_ordering_matches_paper(self):
        assert SYNTHETIC == ("WS26", "WS27", "KN25", "KN26", "KN27", "KN28")

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("nope")

    def test_negative_shift_raises(self):
        with pytest.raises(ValueError):
            load_dataset("UU", scale_shift=-1)


#: blake2b-128 of (num_vertices, indptr, indices, weights) of every
#: registry graph at its default shift.  A change to a generator or to
#: the CSR build that moves any graph moves every figure built on it.
REGISTRY_DIGESTS = {
    "UU": "214dda788c7664291ac2cbaf149c7dd8",  # |V| 14160, |E| 22655
    "SW": "d90975df3f01e05f360ca274da165e84",  # |V| 5126, |E| 56978
    "TW": "6cfece25e508944e494567aec64aed27",  # |V| 10009, |E| 248782
    "FS": "0a08665e564cb25d36ea26b9b29b9c77",  # |V| 15869, |E| 365610
    "PP": "aeb24854623cf8fca69b260bc0fd3421",  # |V| 27099, |E| 390634
    "WS26": "6d47954d91f371ecd2b544cc737a0da3",  # |V| 16384, |E| 81920
    "WS27": "b1515f02a348f3ac7357249427e8e64f",  # |V| 32768, |E| 163840
    "KN25": "b7e29abd04b630743a769dc5d144350a",  # |V| 8192, |E| 72373
    "KN26": "657f9a308921c90821e97519ff859b00",  # |V| 16384, |E| 147974
    "KN27": "3165c97317db52e8596260321c48470b",  # |V| 32768, |E| 301500
    "KN28": "a28b72f024d8361bc9148e7bbc2d4854",  # |V| 65536, |E| 612244
}


def graph_digest(graph):
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(graph.num_vertices).tobytes())
    for array in (graph.indptr, graph.indices, graph.weights):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestRegistryPins:
    def test_every_dataset_is_pinned(self):
        assert set(REGISTRY_DIGESTS) == set(DATASETS)

    @pytest.mark.parametrize("name", sorted(REGISTRY_DIGESTS))
    def test_graph_is_bit_identical(self, name):
        spec = DATASETS[name]
        assert graph_digest(spec.build(spec.scale_shift)) == (
            REGISTRY_DIGESTS[name]
        )


class TestScaledCharacteristics:
    def test_average_degrees_preserved(self):
        # The stand-ins must preserve the paper's degree regime.
        expectations = {"UU": 1.6, "SW": 12.4, "TW": 35.7, "FS": 27.8, "PP": 14.5}
        for name, degree in expectations.items():
            g = load_dataset(name)
            # Dedupe and community redirection shave some edges.
            assert g.average_degree == pytest.approx(degree, rel=0.35), name

    def test_relative_sizes_preserved(self):
        # FS and PP are the biggest graphs, UU has the fewest edges.
        sizes = {name: load_dataset(name).num_edges for name in REAL_WORLD}
        assert sizes["UU"] == min(sizes.values())
        assert sizes["FS"] > sizes["SW"]
        assert sizes["PP"] > sizes["SW"]

    def test_kronecker_scaling_doubles(self):
        kn25 = load_dataset("KN25")
        kn26 = load_dataset("KN26")
        assert kn26.num_vertices == 2 * kn25.num_vertices

    def test_memoised(self):
        assert load_dataset("UU") is load_dataset("UU")

    def test_scale_shift_override(self):
        small = load_dataset("SW", scale_shift=14)
        default = load_dataset("SW")
        assert small.num_vertices < default.num_vertices

    def test_deterministic_across_calls(self):
        load_dataset.cache_clear()
        a = load_dataset("TW")
        load_dataset.cache_clear()
        b = load_dataset("TW")
        assert a.num_edges == b.num_edges


class TestByteBudgetedCache:
    """The memo cache evicts by total edge-array bytes, not entry count
    (an lru_cache(32) pinned up to 32 full graphs for the process
    lifetime, which blows memory at mid/paper scale)."""

    @pytest.fixture
    def tight_budget(self):
        cache = datasets._CACHE
        saved = cache.budget_bytes
        load_dataset.cache_clear()
        yield cache
        cache.budget_bytes = saved
        load_dataset.cache_clear()

    def test_spec_default_and_explicit_shift_share_an_entry(self):
        load_dataset.cache_clear()
        spec_shift = DATASETS["UU"].scale_shift
        assert load_dataset("UU") is load_dataset("UU", spec_shift)
        assert load_dataset.cache_info().currsize == 1

    def test_evicts_least_recently_used_by_bytes(self, tight_budget):
        first = load_dataset("UU", 14)
        # budget: the first graph alone fits, two don't
        tight_budget.budget_bytes = int(
            tight_budget.graph_nbytes(first) * 1.5
        )
        second = load_dataset("SW", 14)
        assert load_dataset("SW", 14) is second  # newest stays
        assert load_dataset("UU", 14) is not first  # LRU was evicted

    def test_recency_protects_entries(self, tight_budget):
        first = load_dataset("UU", 14)
        load_dataset("SW", 14)
        # budget exactly holds the two resident graphs; adding a third
        # (small) one must evict the least recently used
        tight_budget.budget_bytes = tight_budget.total_bytes()
        assert load_dataset("UU", 14) is first  # touch: UU becomes MRU
        load_dataset("UU", 15)  # evicts SW (LRU), not the touched UU
        assert load_dataset("UU", 14) is first
        assert load_dataset.cache_info().currsize == 2

    def test_newest_entry_survives_an_over_budget_graph(self, tight_budget):
        tight_budget.budget_bytes = 1  # nothing "fits"
        graph = load_dataset("UU", 14)
        assert load_dataset("UU", 14) is graph  # still memoised
        assert load_dataset.cache_info().currsize == 1

    def test_cache_info_surface(self, tight_budget):
        info = load_dataset.cache_info()
        assert info.currsize == 0 and info.total_bytes == 0
        load_dataset("UU", 14)
        load_dataset("UU", 14)
        info = load_dataset.cache_info()
        assert info.misses == 1 and info.hits == 1
        assert info.currsize == 1
        assert info.total_bytes == tight_budget.total_bytes() > 0
        load_dataset.cache_clear()
        info = load_dataset.cache_info()
        assert info.hits == info.misses == info.currsize == 0


class TestResidentCostAccounting:
    """Memmap-backed graphs are charged at resident (~0) cost, not full
    nbytes: their pages live in the shared page cache, so evicting them
    frees nothing -- charging them at nbytes made the budget evict
    exactly the entries that were free to keep."""

    @pytest.fixture
    def tight_budget(self):
        cache = datasets._CACHE
        saved = cache.budget_bytes
        load_dataset.cache_clear()
        yield cache
        cache.budget_bytes = saved
        load_dataset.cache_clear()

    def _memmap_swap(self, name, shift, root):
        load_dataset(name, shift)
        datasets.materialize_memmap(name, shift, root)

    def test_materialize_swaps_cached_entry_to_mapped(
        self, tight_budget, tmp_path
    ):
        anon = load_dataset("UU", 14)
        assert tight_budget.graph_resident_nbytes(anon) > 0
        datasets.materialize_memmap("UU", 14, tmp_path)
        swapped = load_dataset("UU", 14)
        assert tight_budget.graph_resident_nbytes(swapped) == 0
        import numpy as np

        assert np.array_equal(anon.indices, swapped.indices)
        assert np.array_equal(anon.indptr, swapped.indptr)
        assert np.array_equal(anon.weights, swapped.weights)

    def test_mapped_entries_are_not_evicted_first(
        self, tight_budget, tmp_path
    ):
        self._memmap_swap("UU", 14, tmp_path)
        mapped = load_dataset("UU", 14)
        anon_a = load_dataset("SW", 14)
        # budget: one anonymous graph fits, two don't; the cheap mapped
        # entry (older than both) must NOT be the victim
        tight_budget.budget_bytes = int(
            tight_budget.graph_nbytes(anon_a) * 1.5
        )
        load_dataset("TW", 14)
        assert load_dataset("UU", 14) is mapped  # mapped entry survived
        assert load_dataset("SW", 14) is not anon_a  # resident LRU went

    def test_eviction_stops_when_only_mapped_entries_remain(
        self, tight_budget, tmp_path
    ):
        self._memmap_swap("UU", 14, tmp_path)
        self._memmap_swap("SW", 14, tmp_path)
        tight_budget.budget_bytes = 1
        load_dataset("UU", 15)  # over-budget newest + two mapped entries
        info = load_dataset.cache_info()
        assert info.currsize == 3  # evicting mapped entries frees nothing

    def test_cache_info_reports_resident_vs_mapped(
        self, tight_budget, tmp_path
    ):
        self._memmap_swap("UU", 14, tmp_path)
        anon = load_dataset("SW", 14)
        info = load_dataset.cache_info()
        assert info.resident_bytes == tight_budget.graph_nbytes(anon)
        assert info.mapped_bytes > 0
        assert info.total_bytes == info.resident_bytes + info.mapped_bytes
