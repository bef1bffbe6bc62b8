"""Tests for the cache -> MSHR -> DRAM request paths."""

import numpy as np
import pytest

from repro.cache.conventional import ConventionalCache
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import (
    ConventionalMemoryPath,
    FineGrainedMemoryPath,
    LocalityMonitor,
)
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.address import AddressMapper
from repro.dram.spec import DEVICES, DRAMConfig
from repro.utils import units

from reference_paths import RequestLog


@pytest.fixture
def mapper():
    return AddressMapper(
        DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1, ranks=1)
    )


class TestConventionalPath:
    def test_misses_become_line_reads(self):
        path = ConventionalMemoryPath(ConventionalCache(1024, ways=2))
        log = RequestLog()
        path.run(np.asarray([0, 8, 64, 128]), rmw=False, phase=log)
        _, addrs, writes = log.take()
        # 0 and 8 share a line: 3 fills.
        assert addrs == [0, 64, 128]
        assert not any(writes)

    def test_rmw_generates_writebacks_on_eviction(self):
        path = ConventionalMemoryPath(ConventionalCache(64, ways=1))
        log = RequestLog()
        path.run(np.asarray([0]), rmw=True, phase=log)
        path.run(np.asarray([4096]), rmw=False, phase=log)
        _, addrs, writes = log.take()
        assert (0 in addrs) and sum(writes) == 1

    def test_drain_resets(self):
        """A path drains each chunk's requests into the phase of the
        ``run`` that made them: a later run hands over none of them,
        and a run whose accesses all hit hands over nothing."""
        path = ConventionalMemoryPath(ConventionalCache(1024, ways=2))
        first, second = RequestLog(), RequestLog()
        path.run(np.asarray([0]), rmw=False, phase=first)
        path.run(np.asarray([0]), rmw=False, phase=second)
        assert first.take()[1] == [0]
        assert second.adds == 0

    def test_flush_emits_dirty_lines(self):
        path = ConventionalMemoryPath(ConventionalCache(1024, ways=2))
        run_log, flush_log = RequestLog(), RequestLog()
        path.run(np.asarray([0]), rmw=True, phase=run_log)
        path.flush(flush_log)
        _, addrs, writes = flush_log.take()
        assert addrs == [0]
        assert writes == [True]


class TestFineGrainedPath:
    def make_path(self, mapper, monitor=None):
        cache = PiccoloCache(1024, ways=2, fg_tag_bits=4)
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=8)
        return FineGrainedMemoryPath(cache, mshr, locality_monitor=monitor)

    def test_eight_misses_one_gather(self, mapper):
        path = self.make_path(mapper)
        log = RequestLog()
        path.run(np.arange(8, dtype=np.int64) * 8, rmw=False, phase=log)
        ops, addrs, _ = log.take()
        assert len(ops) == 1
        assert ops[0].items == 8
        assert addrs == []

    def test_flush_drains_cache_and_mshr(self, mapper):
        path = self.make_path(mapper)
        log = RequestLog()
        path.run(np.asarray([0, 8, 16]), rmw=True, phase=log)
        path.flush(log)
        ops, _, _ = log.take()
        # Dirty sectors become scatter offsets; pending gathers issue too.
        kinds = {op.is_scatter for op in ops}
        assert kinds == {False, True}

    def test_hits_generate_no_ops(self, mapper):
        path = self.make_path(mapper)
        log = RequestLog()
        path.run(np.asarray([0, 0, 0, 0]), rmw=False, phase=log)
        ops, _, _ = log.take()
        assert ops == []
        assert path.cache.stats.hits == 3


class TestNoMemo:
    """A path runs every batch it is given: it keeps no memo and never
    digests its state while it runs (a frontier run's whole cost)."""

    def test_paths_have_no_memo(self, mapper):
        conv = ConventionalMemoryPath(ConventionalCache(1024, ways=2))
        fine = FineGrainedMemoryPath(
            PiccoloCache(1024, ways=2, fg_tag_bits=4),
            CollectionExtendedMSHR(mapper, num_entries=16),
        )
        assert conv.memo is None and fine.memo is None

    def test_run_never_digests(self, mapper):
        class CountingCache(PiccoloCache):
            digest_calls = 0

            def state_digest(self):
                type(self).digest_calls += 1
                return super().state_digest()

        path = FineGrainedMemoryPath(
            CountingCache(1024, ways=2, fg_tag_bits=4),
            CollectionExtendedMSHR(mapper, num_entries=16),
        )
        batch = np.arange(32, dtype=np.int64) * 8
        for _ in range(3):
            path.run(batch, rmw=True, phase=RequestLog())
        assert CountingCache.digest_calls == 0


class TestChunkedStreaming:
    def test_chunked_requests_identical(self, mapper, monkeypatch):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 1 << 12, 400).astype(np.int64) * 8

        def run(chunk):
            monkeypatch.setattr(units, "CHUNK_ACCESSES", chunk)
            path = FineGrainedMemoryPath(
                PiccoloCache(1024, ways=2, fg_tag_bits=4),
                CollectionExtendedMSHR(mapper, num_entries=16),
            )
            log = RequestLog()
            path.run(stream, rmw=True, phase=log)
            path.flush(log)
            return log.take()

        # one chunk longer than the stream, then chunks that do and do
        # not divide it
        assert run(1 << 20) == run(64) == run(33) == run(7)

    def test_chunked_batch_temporaries_stay_bounded(self, mapper, monkeypatch):
        """Peak allocation during a hit-heavy run must scale with the
        chunk, not the stream: the whole point of chunked streaming."""
        import tracemalloc

        # 8 resident words: everything after the first pass hits, so
        # the measured peak is the engine's per-chunk temporaries.
        stream = np.tile(np.arange(8, dtype=np.int64) * 8, 32768)

        def peak(chunk):
            monkeypatch.setattr(units, "CHUNK_ACCESSES", chunk)
            path = FineGrainedMemoryPath(
                PiccoloCache(1024, ways=2, fg_tag_bits=4),
                CollectionExtendedMSHR(mapper, num_entries=16),
            )
            tracemalloc.start()
            tracemalloc.reset_peak()
            path.run(stream, rmw=False, phase=RequestLog())
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak_bytes

        chunk = 4096
        whole = peak(stream.size)
        chunked = peak(chunk)
        # temporaries cost a few dozen bytes per access of the chunk: a
        # stream-long chunk holds O(256k)-element arrays, a 4k-access
        # chunk O(4k).  Require a bound in the chunk length and a
        # decisive gap, not an exact model.
        assert chunked < 128 * chunk, (chunk, chunked, whole)
        assert chunked < whole / 10, (whole, chunked)


class TestLocalityMonitor:
    def test_detects_sequential(self):
        monitor = LocalityMonitor(window=16, threshold=0.75)
        monitor.observe_many(np.arange(32, dtype=np.int64) * 8)
        assert monitor.bypass

    def test_random_does_not_trigger(self):
        monitor = LocalityMonitor(window=16, threshold=0.75)
        rng = np.random.default_rng(0)
        monitor.observe_many(rng.integers(0, 1 << 20, 64) * 8)
        assert not monitor.bypass

    def test_bypass_reroutes_to_bursts(self, mapper):
        cache = PiccoloCache(1024, ways=2, fg_tag_bits=4)
        mshr = CollectionExtendedMSHR(mapper, num_entries=16)
        monitor = LocalityMonitor(window=8, threshold=0.5)
        path = FineGrainedMemoryPath(cache, mshr, locality_monitor=monitor)
        log = RequestLog()
        # Long sequential run: after the window, fills become 64 B bursts.
        path.run(np.arange(256, dtype=np.int64) * 8 + (1 << 20), rmw=False, phase=log)
        _, addrs, _ = log.take()
        assert addrs  # bypass bursts were issued

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalityMonitor(window=1)
        with pytest.raises(ValueError):
            LocalityMonitor(threshold=0.0)
