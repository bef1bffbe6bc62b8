"""Disk-backed tile store: differential, hygiene, and memory-bound tests.

The contract of :mod:`repro.graph.tilestore` is *bit-identity*: a
disk-backed :class:`~repro.graph.partition.TiledCSR` must produce
tiles whose every array (src/dst/weight/src_unique/src_edge_start,
ordering and dtype included) equals the in-memory global-argsort
build's.  The hypothesis suite below drives random multigraphs through
both builds and checks each against an independent reference tiling
(``np.lexsort`` of the edge list by (tile, src, dst)) across tile
widths (non-divisible, width >= |V|), empty tiles, with_weights on/off
and build slices of 1 edge up to the default ``units.CHUNK_ACCESSES``.

The store's hygiene contract is "atomic or missing": failed builds
leave no partial stores, stale partials from a killed builder are
swept, and a store with missing/short arrays reads as absent and is
rebuilt.  The build's transient memory must stay O(chunk + tiles), not
O(edges) -- pinned with tracemalloc (which sees NumPy heap allocations
but not memmap pages, exactly the split we want).
"""

import json
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import tilestore
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.partition import TiledCSR
from repro.utils import units

TILE_FIELDS = ("src", "dst", "weight", "src_unique", "src_edge_start")


def assert_tilings_identical(mem: TiledCSR, dsk: TiledCSR) -> None:
    assert len(mem) == len(dsk)
    for a, b in zip(mem, dsk):
        assert (a.index, a.dst_lo, a.dst_hi) == (b.index, b.dst_lo, b.dst_hi)
        for name in TILE_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, (name, x.dtype, y.dtype)
            assert np.array_equal(x, y), name


def reference_tiles(graph: CSRGraph, width: int, with_weights: bool):
    """The tiling by definition, one dict of arrays per tile.

    Every edge, sorted by (tile, src, dst) with ``np.lexsort`` (stable,
    so parallel edges keep their CSR order and weights), is cut into
    tiles of ``width`` destinations; each tile's row index comes from
    ``np.unique``.
    """
    src, dst, weight = graph.edge_array()
    tile = dst // width
    order = np.lexsort((dst, src, tile))
    src, dst, weight, tile = src[order], dst[order], weight[order], tile[order]
    num_tiles = -(-graph.num_vertices // width)
    cuts = np.searchsorted(tile, np.arange(num_tiles + 1))
    tiles = []
    for t in range(num_tiles):
        lo, hi = cuts[t], cuts[t + 1]
        uniq, start = np.unique(src[lo:hi], return_index=True)
        tiles.append({
            "index": t,
            "dst_lo": t * width,
            "dst_hi": min((t + 1) * width, graph.num_vertices),
            "src": src[lo:hi],
            "dst": dst[lo:hi],
            "weight": weight[lo:hi] if with_weights
            else np.zeros(hi - lo, dtype=np.int64),
            "src_unique": uniq,
            "src_edge_start": np.append(start, hi - lo),
        })
    return tiles


def assert_matches_reference(tiling: TiledCSR) -> None:
    expected = reference_tiles(
        tiling.graph, tiling.tile_width, tiling.with_weights
    )
    assert len(tiling) == len(expected)
    for tile, ref in zip(tiling, expected):
        assert (tile.index, tile.dst_lo, tile.dst_hi) == (
            ref["index"], ref["dst_lo"], ref["dst_hi"]
        )
        for name in TILE_FIELDS:
            got = getattr(tile, name)
            assert got.dtype == np.int64, (name, got.dtype)
            assert np.array_equal(got, ref[name]), (tile.index, name)


@st.composite
def multigraphs(draw):
    """Random graphs that keep parallel edges, with distinct weights so
    a reordered parallel edge shows."""
    n_v = draw(st.integers(min_value=1, max_value=48))
    n_e = draw(st.integers(min_value=0, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_v, n_e)
    dst = rng.integers(0, n_v, n_e)
    weights = rng.permutation(n_e)
    return CSRGraph.from_edges(
        n_v, src, dst, weights, dedupe=False, name="hyp"
    )


class TestDifferentialBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        graph=multigraphs(),
        width_frac=st.floats(min_value=0.01, max_value=2.0),
        with_weights=st.booleans(),
        chunk=st.sampled_from([1, 3, 17, 64, None]),
    )
    def test_disk_tiles_match_memory_build(
        self, graph, width_frac, with_weights, chunk
    ):
        # widths span sub-vertex fractions through >= num_vertices
        # (incl. non-divisible widths); a 1-edge slice cuts the build
        # between every pair of edges, None keeps the default chunk
        width = max(1, int(graph.num_vertices * width_frac))
        chunk = units.CHUNK_ACCESSES if chunk is None else chunk
        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(units, "CHUNK_ACCESSES", chunk):
            mem = TiledCSR(graph, width, with_weights=with_weights)
            dsk = TiledCSR(
                graph,
                width,
                with_weights=with_weights,
                backing="disk",
                store_root=root,
            )
            assert_matches_reference(mem)
            assert_matches_reference(dsk)
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
    def test_both_builders_match_unique(self, width, tmp_path, monkeypatch):
        graph = erdos_renyi(40, avg_degree=3.0, seed=11, name="oracle")
        monkeypatch.setattr(units, "CHUNK_ACCESSES", 11)
        mem = TiledCSR(graph, width)
        dsk = TiledCSR(graph, width, backing="disk", store_root=tmp_path)
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

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5])
    def test_zero_degree_rows_across_chunk_boundaries(
        self, chunk, tmp_path, monkeypatch
    ):
        # out-degrees 3 0 0 2 0 5 0 0 1 0: small slices cut the edge
        # range inside and right next to the zero-degree rows
        degrees = np.array([3, 0, 0, 2, 0, 5, 0, 0, 1, 0])
        src = np.repeat(np.arange(degrees.size), degrees)
        dst = (src * 7 + np.arange(src.size)) % degrees.size
        graph = CSRGraph.from_edges(degrees.size, src, dst, dedupe=False)
        chunks = [
            tilestore._edge_sources(
                graph.indptr, lo, min(lo + chunk, graph.num_edges)
            )
            for lo in range(0, graph.num_edges, chunk)
        ]
        assert all(c.dtype == np.int64 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), src)
        monkeypatch.setattr(units, "CHUNK_ACCESSES", chunk)
        dsk = TiledCSR(graph, 3, backing="disk", store_root=tmp_path)
        assert_row_index_oracle(dsk)
        assert_tilings_identical(TiledCSR(graph, 3), dsk)

    @pytest.mark.parametrize("num_tiles", [256, 257, 65_536, 65_537])
    def test_narrowed_tile_key_boundaries(
        self, num_tiles, tmp_path, monkeypatch
    ):
        # width-1 tiles: the build narrows the tile id to uint8 up to
        # 256 tiles, uint16 up to 65,536 and uint32 beyond
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
        monkeypatch.setattr(units, "CHUNK_ACCESSES", 64)
        dsk = TiledCSR(graph, 1, backing="disk", store_root=tmp_path)
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

        monkeypatch.setattr(tilestore, "_build_store", boom)
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
        class FailingWrites(np.memmap):
            def __setitem__(self, index, value):
                raise RuntimeError("injected write failure")

        real_open_memmap = tilestore.open_memmap

        def open_failing(path, *args, **kwargs):
            mapped = real_open_memmap(path, *args, **kwargs)
            # src.npy is written only by pass 2's per-slice writes
            if path.name == "src.npy":
                return mapped.view(FailingWrites)
            return mapped

        monkeypatch.setattr(tilestore, "open_memmap", open_failing)
        with pytest.raises(RuntimeError, match="injected"):
            TiledCSR(
                medium_power_law_graph, 128, backing="disk",
                store_root=tmp_path,
            )
        # no store and no tmp build dir survives the failure
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("chunk", [1, None])
    def test_unsorted_row_refused_without_partials(
        self, chunk, tmp_path, monkeypatch
    ):
        # row 1 lists 4 before 2: grouping CSR order by tile would not
        # give the sorted tiling, so the build refuses the graph; with
        # 1-edge slices the decrease straddles a slice cut
        if chunk is not None:
            monkeypatch.setattr(units, "CHUNK_ACCESSES", chunk)
        graph = CSRGraph(
            indptr=np.array([0, 2, 5, 6, 6, 6]),
            indices=np.array([1, 3, 0, 4, 2, 0]),
            weights=np.arange(6),
            name="unsorted",
        )
        with pytest.raises(ValueError, match="sorted ascending; row 1"):
            TiledCSR(graph, 2, backing="disk", store_root=tmp_path)
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
        # the spill-bucket directory an earlier builder left
        spill = tmp_path / f".tiles-{digest}.spill.{proc.pid}.k3j9"
        spill.mkdir()
        (spill / "bucket_0.bin").write_bytes(b"\x00" * 48)
        dsk = TiledCSR(
            medium_power_law_graph, 128, backing="disk", store_root=tmp_path
        )
        assert not stale.exists()
        assert not spill.exists()
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
    @pytest.mark.parametrize("width", [1024, 16])
    def test_transient_memory_is_o_chunk_not_o_edges(
        self, width, tmp_path, monkeypatch
    ):
        """The streaming build's NumPy-heap peak is O(chunk + tiles) --
        a small fraction of the edge arrays -- where the in-memory
        argsort build's peak is a *multiple* of them."""
        import tracemalloc

        graph = erdos_renyi(1 << 15, avg_degree=12.0, seed=9, name="bound")
        edge_bytes = graph.indices.nbytes  # one edge-sized int64 array
        assert graph.num_edges > 300_000
        monkeypatch.setattr(units, "CHUNK_ACCESSES", 8192)

        tracemalloc.start()
        mem = TiledCSR(graph, width)
        _, mem_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del mem

        tracemalloc.start()
        dsk = TiledCSR(graph, width, backing="disk", store_root=tmp_path)
        _, disk_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        # in-memory: src copy + packed key + argsort + sorted copies
        # >= several edge-sized arrays; streaming: one 8192-edge slice
        # plus a few int64 offsets and cursors per tile
        assert mem_peak > 3 * edge_bytes
        assert disk_peak < 128 * units.CHUNK_ACCESSES + 32 * len(dsk)
        assert disk_peak < edge_bytes / 2
