"""Disk-backed tile store: differential, hygiene, and memory-bound tests.

The contract of :mod:`repro.graph.tilestore` is *bit-identity*: a
disk-backed :class:`~repro.graph.partition.TiledCSR` must produce
tiles whose every array (src/dst/weight/src_unique/src_edge_start,
ordering and dtype included) equals the in-memory global-argsort
build's.  The hypothesis suite below drives random graphs through both
builds across tile widths (non-divisible, width >= |V|), empty tiles,
and with_weights on/off.

The store's hygiene contract is "atomic or missing": failed builds
leave no spill buckets or partial stores, stale partials from a killed
builder are swept, and a store with missing/short arrays reads as
absent and is rebuilt.  The build's transient memory must stay
O(bucket), not O(edges) -- pinned with tracemalloc (which sees NumPy
heap allocations but not memmap pages, exactly the split we want).
"""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import tilestore
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.partition import TiledCSR

TILE_FIELDS = ("src", "dst", "weight", "src_unique", "src_edge_start")


def assert_tilings_identical(mem: TiledCSR, dsk: TiledCSR) -> None:
    assert len(mem) == len(dsk)
    for a, b in zip(mem, dsk):
        assert (a.index, a.dst_lo, a.dst_hi) == (b.index, b.dst_lo, b.dst_hi)
        for name in TILE_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, (name, x.dtype, y.dtype)
            assert np.array_equal(x, y), name


@st.composite
def graphs(draw):
    n_v = draw(st.integers(min_value=1, max_value=48))
    n_e = draw(st.integers(min_value=0, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_v, n_e)
    dst = rng.integers(0, n_v, n_e)
    weights = rng.integers(0, 1_000, n_e)
    return CSRGraph.from_edges(n_v, src, dst, weights, name="hyp")


class TestDifferentialBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        graph=graphs(),
        width_frac=st.floats(min_value=0.01, max_value=2.0),
        with_weights=st.booleans(),
        bucket_edges=st.sampled_from([1, 3, 17, 64, None]),
    )
    def test_disk_tiles_match_memory_build(
        self, graph, width_frac, with_weights, bucket_edges
    ):
        # widths span sub-vertex fractions through >= num_vertices
        # (incl. non-divisible widths); bucket_edges=1 forces a spill
        # append per edge, the adversarial chunking extreme
        width = max(1, int(graph.num_vertices * width_frac))
        with tempfile.TemporaryDirectory() as root:
            mem = TiledCSR(graph, width, with_weights=with_weights)
            dsk = TiledCSR(
                graph,
                width,
                with_weights=with_weights,
                backing="disk",
                store_root=root,
                bucket_edges=bucket_edges,
            )
            assert_tilings_identical(mem, dsk)
            assert dsk.total_edges() == graph.num_edges

    def test_empty_tiles_and_isolated_vertices(self, tmp_path):
        # all edges land in tile 0 of 8: tiles 1..7 are empty
        src = np.array([4, 9, 15])
        dst = np.array([0, 1, 0])
        graph = CSRGraph.from_edges(16, src, dst, name="sparse")
        mem = TiledCSR(graph, 2)
        dsk = TiledCSR(graph, 2, backing="disk", store_root=tmp_path)
        assert len(dsk) == 8
        assert_tilings_identical(mem, dsk)
        assert dsk[5].num_edges == 0
        assert dsk[5].src_edge_start.tolist() == [0]

    def test_weightless_tiles_share_zero_view(self, tmp_path, tiny_graph):
        dsk = TiledCSR(
            tiny_graph, 2, with_weights=False, backing="disk",
            store_root=tmp_path,
        )
        for tile in dsk:
            assert tile.weight.shape == tile.src.shape
            assert not tile.weight.any()

    def test_memmap_views_returned(self, tmp_path, medium_power_law_graph):
        dsk = TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        tile = dsk[0]
        assert isinstance(tile.src, np.memmap) or isinstance(
            tile.src.base, np.memmap
        )

    def test_invalid_backing_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="backing"):
            TiledCSR(tiny_graph, 2, backing="tape")


def assert_row_index_oracle(tiling: TiledCSR) -> None:
    """Every tile's run-start row index equals ``np.unique``'s."""
    for tile in tiling:
        t_src = np.asarray(tile.src)
        uniq, start = np.unique(t_src, return_index=True)
        assert tile.src_unique.dtype == tile.src_edge_start.dtype == np.int64
        assert np.array_equal(tile.src_unique, uniq)
        assert np.array_equal(
            tile.src_edge_start, np.append(start, t_src.size)
        )


class TestRowIndexOracle:
    @pytest.mark.parametrize("width", [1, 7, 40, 45])
    def test_both_builders_match_unique(self, width, tmp_path):
        graph = erdos_renyi(40, avg_degree=3.0, seed=11, name="oracle")
        mem = TiledCSR(graph, width)
        dsk = TiledCSR(graph, width, backing="disk", store_root=tmp_path,
                       bucket_edges=11)
        assert_row_index_oracle(mem)
        assert_row_index_oracle(dsk)
        assert_tilings_identical(mem, dsk)

    def test_empty_tiles(self, tmp_path):
        # every edge lands in tile 0 of 8; tiles 1..7 are empty
        graph = CSRGraph.from_edges(
            16, np.array([4, 9, 15]), np.array([0, 1, 0]), name="sparse"
        )
        mem = TiledCSR(graph, 2)
        dsk = TiledCSR(graph, 2, backing="disk", store_root=tmp_path)
        assert [t.num_edges for t in dsk][1:] == [0] * 7
        assert_row_index_oracle(mem)
        assert_row_index_oracle(dsk)

    @pytest.mark.parametrize("bucket_edges", [1, 2, 3, 4, 5])
    def test_zero_degree_rows_across_chunk_boundaries(
        self, bucket_edges, tmp_path
    ):
        # out-degrees 3 0 0 2 0 5 0 0 1 0: small buckets cut the edge
        # range inside and right next to the zero-degree rows
        degrees = np.array([3, 0, 0, 2, 0, 5, 0, 0, 1, 0])
        src = np.repeat(np.arange(degrees.size), degrees)
        dst = (src * 7 + np.arange(src.size)) % degrees.size
        graph = CSRGraph.from_edges(degrees.size, src, dst, dedupe=False)
        chunks = [
            tilestore._edge_sources(
                graph.indptr, lo, min(lo + bucket_edges, graph.num_edges)
            )
            for lo in range(0, graph.num_edges, bucket_edges)
        ]
        assert all(c.dtype == np.int64 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), src)
        dsk = TiledCSR(graph, 3, backing="disk", store_root=tmp_path,
                       bucket_edges=bucket_edges)
        assert_row_index_oracle(dsk)
        assert_tilings_identical(TiledCSR(graph, 3), dsk)

    @pytest.mark.parametrize("num_tiles", [256, 257, 65_536, 65_537])
    def test_narrowed_tile_key_boundaries(self, num_tiles, tmp_path):
        # width-1 tiles: the scatter pass narrows the tile id to uint8
        # up to 256 tiles, uint16 up to 65,536 and uint32 beyond
        itemsize = {256: 1, 257: 2, 65_536: 2, 65_537: 4}[num_tiles]
        assert np.min_scalar_type(num_tiles - 1).itemsize == itemsize
        rng = np.random.default_rng(num_tiles)
        top = num_tiles - 1
        dst = np.concatenate([
            [0, 255, 256 % num_tiles, top - 1, top, top, top],
            rng.integers(0, num_tiles, 200),
        ])
        src = rng.integers(0, num_tiles, dst.size)
        graph = CSRGraph.from_edges(num_tiles, src, dst, name="wide")
        mem = TiledCSR(graph, 1)
        dsk = TiledCSR(graph, 1, backing="disk", store_root=tmp_path,
                       bucket_edges=64)
        assert len(dsk) == num_tiles
        assert_row_index_oracle(mem)
        # the store's flat arrays are the memory build's tiles end to end
        # (compared flat: assembling 65k memmap tile views is slow)
        store = dsk.store.directory
        for name in TILE_FIELDS:
            flat = np.concatenate([getattr(t, name) for t in mem])
            assert np.array_equal(np.load(store / f"{name}.npy"), flat)
        for name, sizes in (
            ("boundaries", [t.num_edges for t in mem]),
            ("uniq_boundaries", [t.src_unique.size for t in mem]),
        ):
            assert np.array_equal(
                np.diff(np.load(store / f"{name}.npy")), sizes
            )


class TestStoreAttachAndValidation:
    def test_second_build_attaches_without_rebuilding(
        self, tmp_path, monkeypatch, medium_power_law_graph
    ):
        TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("store should have been attached, not built")

        monkeypatch.setattr(tilestore, "_external_sort_build", boom)
        dsk = TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        assert dsk.total_edges() == medium_power_law_graph.num_edges

    def test_distinct_configs_get_distinct_stores(
        self, tmp_path, medium_power_law_graph
    ):
        TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        TiledCSR(
            medium_power_law_graph, 256, backing="disk", store_root=tmp_path
        )
        TiledCSR(
            medium_power_law_graph, 128, with_weights=False, backing="disk",
            store_root=tmp_path,
        )
        assert len(list(tmp_path.glob("tiles-*"))) == 3

    def _store_dir(self, root):
        (store,) = root.glob("tiles-*")
        return store

    def test_short_array_reads_as_absent_and_rebuilds(
        self, tmp_path, medium_power_law_graph
    ):
        mem = TiledCSR(medium_power_law_graph, 128)
        TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        store = self._store_dir(tmp_path)
        src_npy = store / "src.npy"
        src_npy.write_bytes(src_npy.read_bytes()[:-16])  # truncate tail
        assert not tilestore.store_valid(store)
        dsk = TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        assert_tilings_identical(mem, dsk)

    def test_missing_array_reads_as_absent(
        self, tmp_path, medium_power_law_graph
    ):
        TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        store = self._store_dir(tmp_path)
        assert tilestore.store_valid(store)
        (store / "src_unique.npy").unlink()
        assert not tilestore.store_valid(store)

    def test_corrupt_manifest_reads_as_absent(
        self, tmp_path, medium_power_law_graph
    ):
        TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        store = self._store_dir(tmp_path)
        (store / "meta.json").write_text("{not json")
        assert not tilestore.store_valid(store)

    def test_wrong_manifest_length_reads_as_absent(
        self, tmp_path, medium_power_law_graph
    ):
        TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        store = self._store_dir(tmp_path)
        meta = json.loads((store / "meta.json").read_text())
        meta["arrays"]["dst"] += 1
        (store / "meta.json").write_text(json.dumps(meta))
        assert not tilestore.store_valid(store)


class TestSpillHygiene:
    def test_failed_build_leaves_no_partials(
        self, tmp_path, monkeypatch, medium_power_law_graph
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("injected sort failure")

        # fail inside a bucket: pass 2 orders each bucket with pair_order
        monkeypatch.setattr(tilestore, "pair_order", boom)
        with pytest.raises(RuntimeError, match="injected"):
            TiledCSR(
                medium_power_law_graph, 128, backing="disk",
                store_root=tmp_path,
            )
        # no store, no tmp build dir, no spill dir survives the failure
        assert list(tmp_path.iterdir()) == []

    def test_stale_partials_from_killed_builder_swept(
        self, tmp_path, medium_power_law_graph
    ):
        import subprocess

        # a pid guaranteed dead: a subprocess we already reaped
        proc = subprocess.Popen(["true"])
        proc.wait()
        digest = tilestore.store_digest(medium_power_law_graph, 128, True)
        stale = tmp_path / f".tiles-{digest}.tmp.{proc.pid}"
        stale.mkdir()
        (stale / "src.npy").write_bytes(b"partial")
        dsk = TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        assert not stale.exists()
        assert dsk.total_edges() == medium_power_law_graph.num_edges

    def test_live_builders_partials_left_alone(
        self, tmp_path, medium_power_law_graph
    ):
        import os

        # partials owned by a live pid (ours) belong to a concurrent
        # builder racing us to os.replace: the sweep must not touch them
        digest = tilestore.store_digest(medium_power_law_graph, 128, True)
        live = tmp_path / f".tiles-{digest}.spill.{os.getpid()}.x1y2"
        live.mkdir()
        (live / "bucket_0.bin").write_bytes(b"\x00" * 48)
        dsk = TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        assert live.exists()
        assert dsk.total_edges() == medium_power_law_graph.num_edges

    def test_invalid_store_remnant_is_replaced(
        self, tmp_path, medium_power_law_graph
    ):
        digest = tilestore.store_digest(medium_power_law_graph, 128, True)
        remnant = tmp_path / f"tiles-{digest}"
        remnant.mkdir()
        (remnant / "junk.bin").write_bytes(b"\x00")
        mem = TiledCSR(medium_power_law_graph, 128)
        dsk = TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        assert_tilings_identical(mem, dsk)


class TestDefaultRoot:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TILE_STORE", str(tmp_path / "env"))
        assert tilestore.default_root() == tmp_path / "env"

    def test_set_default_root_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TILE_STORE", raising=False)
        previous = tilestore.set_default_root(tmp_path / "shared")
        try:
            assert tilestore.default_root() == tmp_path / "shared"
        finally:
            tilestore.set_default_root(previous)


class TestBuildMemoryBound:
    def test_transient_memory_is_o_bucket_not_o_edges(self, tmp_path):
        """The external build's NumPy-heap peak must be a small fraction
        of the edge arrays (O(bucket + largest tile)), where the
        in-memory argsort build's peak is a *multiple* of them."""
        import tracemalloc

        graph = erdos_renyi(1 << 15, avg_degree=12.0, seed=9, name="bound")
        edge_bytes = graph.indices.nbytes  # one edge-sized int64 array
        assert graph.num_edges > 300_000

        tracemalloc.start()
        TiledCSR(graph, 1024)
        _, mem_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        TiledCSR(
            graph, 1024, backing="disk", store_root=tmp_path,
            bucket_edges=8192,
        )
        _, disk_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        # in-memory: src copy + packed key + argsort + sorted copies
        # >= several edge-sized arrays; external: one 8192-edge scatter
        # chunk / one ~12k-edge tile bucket at a time
        assert mem_peak > 3 * edge_bytes
        assert disk_peak < edge_bytes
        assert disk_peak < mem_peak / 4
