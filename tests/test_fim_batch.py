"""Array-backed FIM-op stream: FimOpBatch + the DRAM phase evaluator.

Three layers of equivalence, mirroring the batched-engine discipline of
``test_batched_equivalence.py``:

1. :class:`FimOpBatch` keeps every appended or extended operation, in
   order, in seven typed columns (read back through the test suite's
   ``as_tuples`` view).
2. ``DRAMModel.phase`` matches the one-shot whole-array walk it
   replaced (:func:`reference_phase`, kept here as the oracle) and,
   for FIM ops, the per-op scalar walk before that
   (:func:`reference_phase_fim`): every PhaseStats field, floats
   included, for phases carrying bursts or FIM ops; integer counters
   for phases mixing both.
3. ``DRAMModel.open_phase`` (chunk-streamed evaluation) reproduces the
   one-add ``phase`` call over the concatenated stream, every field
   bit-identical, for any chunking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import FineGrainedMemoryPath
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.address import AddressMapper
from repro.dram.fim_batch import FimOpBatch
from repro.dram.spec import DEVICES, DRAMConfig
from repro.dram.system import DEFAULT_SCHEDULER_WINDOW, DRAMModel, PhaseStats
from repro.utils import units
from repro.utils.units import ceil_div

from reference_paths import FimRow, RequestLog, as_tuples, to_batch


def make_config(channels=2, ranks=2):
    return DRAMConfig(
        spec=DEVICES["DDR4_2400_x16"], channels=channels, ranks=ranks
    )


CONFIG = make_config()

# -- strategies --------------------------------------------------------------
fim_op_tuples = st.tuples(
    st.integers(0, CONFIG.channels - 1),          # channel
    st.integers(0, CONFIG.ranks - 1),             # rank
    st.integers(0, CONFIG.total_banks - 1),       # bank
    st.integers(0, 40),                           # row (small: long runs)
    st.integers(1, 8),                            # items
    st.booleans(),                                # is_scatter
    st.booleans(),                                # rank_level
)
op_streams = st.lists(fim_op_tuples, min_size=0, max_size=200)
chunk_seed = st.integers(min_value=0, max_value=2**31 - 1)


# ---------------------------------------------------------------------------
# 1. FimOpBatch as an append-only column store
# ---------------------------------------------------------------------------
class TestFimOpBatch:
    def test_empty(self):
        batch = FimOpBatch()
        assert len(batch) == 0
        assert as_tuples(batch) == []
        assert all(col.size == 0 for col in batch.columns())

    def test_append_and_index(self):
        batch = FimOpBatch()
        batch.append(0, 1, 2, 3, 4, True, False)
        batch.append(1, 0, 5, 6, 7, False, True)
        assert len(batch) == 2
        rows = as_tuples(batch)
        assert rows[0] == FimRow(0, 1, 2, 3, 4, True, False)
        assert rows[-1] == FimRow(1, 0, 5, 6, 7, False, True)

    def test_extend_merges_batches(self):
        """Extending seals both sides' staged appends first, so the
        merged stream keeps arrival order across appends and extends."""
        a = to_batch([FimRow(0, 0, 1, 1, 8, False)])
        b = to_batch([FimRow(1, 1, 2, 2, 4, True)])
        a.extend(b)
        a.append(0, 1, 3, 3, 2, False, True)
        a.extend(to_batch([FimRow(1, 0, 4, 4, 1, True)]))
        assert len(a) == 4
        assert as_tuples(a) == [
            FimRow(0, 0, 1, 1, 8, False),
            FimRow(1, 1, 2, 2, 4, True),
            FimRow(0, 1, 3, 3, 2, False, True),
            FimRow(1, 0, 4, 4, 1, True),
        ]

    def test_columns_shapes_and_dtypes(self):
        batch = to_batch([(0, 1, 2, 3, 4, True, False)] * 5)
        cols = batch.columns()
        assert len(cols) == 7
        assert all(c.shape == (5,) for c in cols)
        assert all(c.dtype == np.int64 for c in cols[:5])
        assert all(c.dtype == bool for c in cols[5:])

    def test_as_tuples_view(self):
        tuples = [(0, 1, 2, 3, 4, True, False), (1, 0, 9, 8, 7, False, True)]
        assert as_tuples(to_batch(tuples)) == tuples


# ---------------------------------------------------------------------------
# 2. The phase evaluator vs the one-shot and per-op walks (the oracles)
# ---------------------------------------------------------------------------
def episode_count(bank: np.ndarray, row: np.ndarray) -> int:
    """Number of (bank, row) runs a service order produces."""
    if bank.size == 0:
        return 0
    return 1 + int(
        np.count_nonzero((bank[1:] != bank[:-1]) | (row[1:] != row[:-1]))
    )


def window_order(
    model: DRAMModel, bank: np.ndarray, row: np.ndarray
) -> np.ndarray | None:
    """Windowed row-hit-first service order, or None for arrival order.

    The chunked lexsort can *split* a row run that arrival order kept
    together (a same-row tail straddling a chunk boundary gets sorted
    away from its head).  A real FR-FCFS scheduler reorders only
    opportunistically, so the reordered schedule is used only when it
    does not increase the episode count.
    """
    n = bank.size
    if n <= 1 or model.scheduler_window <= 1:
        return None
    chunk = np.arange(n, dtype=np.int64) // model.scheduler_window
    order = np.lexsort((row, bank, chunk))
    if episode_count(bank[order], row[order]) >= episode_count(bank, row):
        return None
    return order


def accumulate_episodes(
    model: DRAMModel,
    bank: np.ndarray,
    row: np.ndarray,
    cost: np.ndarray,
    bank_busy: np.ndarray,
    stats: PhaseStats,
) -> None:
    """Fold (bank, row, cost) sequences into per-bank episode time."""
    if bank.size == 0:
        return
    spec = model.spec
    boundary = np.empty(bank.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (bank[1:] != bank[:-1]) | (row[1:] != row[:-1])
    starts = np.flatnonzero(boundary)
    sums = np.add.reduceat(cost, starts)
    episode_time = np.maximum(spec.tRAS, spec.tRCD + sums) + spec.tRP
    np.add.at(bank_busy, bank[starts], episode_time)
    stats.acts += int(starts.size)


def reference_phase(
    model: DRAMModel,
    addrs: np.ndarray | None = None,
    is_write: np.ndarray | None = None,
    fim_ops: FimOpBatch | None = None,
    stream_read_bytes: float = 0.0,
    stream_write_bytes: float = 0.0,
    loose_read_bursts: int = 0,
) -> PhaseStats:
    """The one-shot whole-array phase walk that ``DRAMModel.phase`` ran
    before it became one ``PhaseAccumulator`` add, preserved as the
    oracle: bursts and FIM ops share one bank and one bus busy array."""
    spec = model.spec
    config = model.config
    stats = PhaseStats(_burst_bytes=spec.burst_bytes)
    bank_busy = np.zeros(config.total_banks, dtype=np.float64)
    bus_busy = np.zeros(config.channels, dtype=np.float64)
    rank_busy = np.zeros(config.channels * config.ranks, dtype=np.float64)

    if addrs is not None and len(addrs):
        addrs = np.asarray(addrs, dtype=np.int64)
        if is_write is None:
            is_write = np.zeros(addrs.size, dtype=bool)
        else:
            is_write = np.asarray(is_write, dtype=bool)
        bank, row = model.mapper.bank_key_many(addrs)
        channel = model.mapper.channel_of_many(addrs)
        order = window_order(model, bank, row)
        if order is not None:
            bank, row = bank[order], row[order]
        cost = np.full(addrs.size, model._col_cost, dtype=np.float64)
        accumulate_episodes(model, bank, row, cost, bank_busy, stats)
        stats.read_bursts += int(np.count_nonzero(~is_write))
        stats.write_bursts += int(np.count_nonzero(is_write))
        np.add.at(bus_busy, channel, spec.tBURST)

    if fim_ops is not None and len(fim_ops):
        fim_bank, fim_row, cost = model._fim_charge(
            fim_ops, bus_busy, rank_busy, stats
        )
        order = window_order(model, fim_bank, fim_row)
        if order is not None:
            fim_bank, fim_row, cost = (
                fim_bank[order], fim_row[order], cost[order]
            )
        accumulate_episodes(model, fim_bank, fim_row, cost, bank_busy, stats)

    if loose_read_bursts:
        bus_busy += loose_read_bursts * spec.tBURST / config.channels
        stats.read_bursts += loose_read_bursts

    stream_bursts_rd = ceil_div(int(stream_read_bytes), spec.burst_bytes)
    stream_bursts_wr = ceil_div(int(stream_write_bytes), spec.burst_bytes)
    if stream_bursts_rd or stream_bursts_wr:
        total = (stream_bursts_rd + stream_bursts_wr) * spec.tBURST
        bus_busy += total / config.channels
        stats.read_bursts += stream_bursts_rd
        stats.write_bursts += stream_bursts_wr
        stats.acts += ceil_div(
            int(stream_read_bytes + stream_write_bytes), spec.row_bytes
        )

    stats.bus_busy_ns = float(bus_busy.sum())
    busiest = max(
        float(bank_busy.max(initial=0.0)),
        float(bus_busy.max(initial=0.0)),
        float(rank_busy.max(initial=0.0)),
    )
    if busiest > 0.0:
        busiest = max(busiest, model.latency_ns())
    stats.time_ns = busiest
    return stats


def reference_phase_fim(model: DRAMModel, ops: list[FimRow]) -> PhaseStats:
    """The pre-FimOpBatch per-op scalar walk, preserved verbatim as the
    oracle for the vectorized FIM evaluation."""
    spec = model.spec
    config = model.config
    stats = PhaseStats(_burst_bytes=spec.burst_bytes)
    bank_busy = np.zeros(config.total_banks, dtype=np.float64)
    bus_busy = np.zeros(config.channels, dtype=np.float64)
    rank_busy = np.zeros(config.channels * config.ranks, dtype=np.float64)
    if ops:
        fim_bank = np.fromiter(
            (op.bank for op in ops), dtype=np.int64, count=len(ops)
        )
        fim_row = np.fromiter(
            (op.row for op in ops), dtype=np.int64, count=len(ops)
        )
        cost = np.empty(len(ops), dtype=np.float64)
        for i, op in enumerate(ops):
            if op.rank_level:
                cost[i] = op.items * model._col_cost
                rank_busy[op.channel * config.ranks + op.rank] += (
                    spec.tRCD + op.items * model._col_cost + spec.tRP
                )
            else:
                cost[i] = model._fim_bank_cost
            off_b = config.fim_offset_bursts
            data_b = max(1, ceil_div(op.items * 8, spec.burst_bytes))
            bus_busy[op.channel] += (off_b + data_b) * spec.tBURST
            stats.fim_offset_bursts += off_b
            stats.write_bursts += off_b
            if op.is_scatter:
                stats.fim_scatters += 1
                stats.write_bursts += data_b
            else:
                stats.fim_gathers += 1
                stats.read_bursts += data_b
            stats.internal_words += op.items
        order = window_order(model, fim_bank, fim_row)
        if order is not None:
            fim_bank, fim_row, cost = (
                fim_bank[order], fim_row[order], cost[order]
            )
        accumulate_episodes(model, fim_bank, fim_row, cost, bank_busy, stats)
    stats.bus_busy_ns = float(bus_busy.sum())
    busiest = max(
        float(bank_busy.max(initial=0.0)),
        float(bus_busy.max(initial=0.0)),
        float(rank_busy.max(initial=0.0)),
    )
    if busiest > 0.0:
        busiest = max(busiest, model.latency_ns())
    stats.time_ns = busiest
    return stats


@settings(max_examples=60, deadline=None)
@given(tuples=op_streams)
def test_phase_batch_matches_scalar_walk_bitwise(tuples):
    model = DRAMModel(make_config())
    expected = reference_phase_fim(model, [FimRow(*t) for t in tuples])
    got = model.phase(fim_ops=to_batch(tuples))
    assert vars(got) == vars(expected)


def random_bursts(seed, n, span):
    """``n`` burst addresses over ``span`` blocks, with a write mask."""
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, span, n) * 64).astype(np.int64)
    return addrs, rng.random(n) < 0.4


windows = st.sampled_from([1, 4, DEFAULT_SCHEDULER_WINDOW])
spans = st.sampled_from([1 << 8, 1 << 14, 1 << 20])
stream_bytes = st.floats(0.0, 1e6, allow_nan=False)
stream_pairs = st.tuples(stream_bytes, stream_bytes)


@settings(max_examples=60, deadline=None)
@given(
    seed=chunk_seed,
    n=st.integers(0, 400),
    span=spans,
    window=windows,
    loose=st.integers(0, 9),
    streams=stream_pairs,
)
def test_phase_matches_reference_on_burst_phases(
    seed, n, span, window, loose, streams
):
    model = DRAMModel(make_config(), scheduler_window=window)
    addrs, writes = random_bursts(seed, n, span)
    kwargs = dict(
        addrs=addrs,
        is_write=writes,
        loose_read_bursts=loose,
        stream_read_bytes=streams[0],
        stream_write_bytes=streams[1],
    )
    expected = reference_phase(model, **kwargs)
    assert vars(model.phase(**kwargs)) == vars(expected)


@settings(max_examples=60, deadline=None)
@given(tuples=op_streams, window=windows, streams=stream_pairs)
def test_phase_matches_reference_on_fim_phases(tuples, window, streams):
    model = DRAMModel(make_config(), scheduler_window=window)
    kwargs = dict(
        fim_ops=to_batch(tuples),
        stream_read_bytes=streams[0],
        stream_write_bytes=streams[1],
    )
    expected = reference_phase(model, **kwargs)
    assert vars(model.phase(**kwargs)) == vars(expected)


INT_FIELDS = (
    "acts", "read_bursts", "write_bursts", "fim_offset_bursts",
    "fim_gathers", "fim_scatters", "internal_words",
)


@settings(max_examples=40, deadline=None)
@given(
    tuples=op_streams, seed=chunk_seed, n=st.integers(1, 300), span=spans
)
def test_phase_matches_reference_counters_on_mixed_phases(
    tuples, seed, n, span
):
    """A phase mixing bursts and FIM ops sums the two kinds' busy
    arrays at close instead of sharing one array, so only its integer
    counters are pinned to the one-shot walk."""
    model = DRAMModel(make_config())
    addrs, writes = random_bursts(seed, n, span)
    kwargs = dict(addrs=addrs, is_write=writes, fim_ops=to_batch(tuples))
    got = model.phase(**kwargs)
    expected = reference_phase(model, **kwargs)
    for name in INT_FIELDS:
        assert getattr(got, name) == getattr(expected, name), name


@pytest.mark.parametrize("name", ["is_write"])
def test_phase_rejects_mask_length_mismatch(name):
    model = DRAMModel(make_config())
    addrs = np.arange(5, dtype=np.int64) * 64
    with pytest.raises(ValueError, match=name):
        model.phase(addrs=addrs, **{name: np.array([True])})
    with pytest.raises(ValueError, match=name):
        model.open_phase().add(addrs=addrs, **{name: np.zeros(6, dtype=bool)})


class TestSchedulerWindowBehaviour:
    """The windowed row-hit-first reorder decision must survive the
    vectorization and the chunk-streamed evaluation unchanged."""

    def interleaved(self, model, n=64):
        """Rows A/B alternating within windows: reorder halves episodes."""
        return [FimRow(0, 0, 0, i % 2, 8, False) for i in range(n)]

    def run_of_rows(self, model, n=64):
        """One long same-row run: reorder cannot help (arrival kept)."""
        return [FimRow(0, 0, 0, 0, 8, False) for i in range(n)]

    def test_reorder_reduces_episodes(self):
        model = DRAMModel(make_config())
        ops = self.interleaved(model)
        acts = model.phase(fim_ops=to_batch(ops)).acts
        arrival_acts = DRAMModel(
            make_config(), scheduler_window=1
        ).phase(fim_ops=to_batch(ops)).acts
        assert acts < arrival_acts  # the window reorder was accepted
        assert acts == len(ops) * 2 // model.scheduler_window

    def test_same_row_run_keeps_single_episode(self):
        model = DRAMModel(make_config())
        stats = model.phase(
            fim_ops=to_batch(self.run_of_rows(model))
        )
        assert stats.acts == 1

    @pytest.mark.parametrize("chunk", [1, 5, 31, 32, 33])
    def test_streamed_episode_counts_match(self, chunk):
        model = DRAMModel(make_config())
        for ops in (self.interleaved(model, 96), self.run_of_rows(model, 96)):
            whole = model.phase(fim_ops=to_batch(ops))
            acc = model.open_phase()
            for start in range(0, len(ops), chunk):
                acc.add(fim_ops=to_batch(ops[start:start + chunk]))
            assert vars(acc.close()) == vars(whole)


# ---------------------------------------------------------------------------
# 3. Chunk-streamed phase evaluation (PhaseAccumulator)
# ---------------------------------------------------------------------------
def split_spans(n, seed):
    rng = np.random.default_rng(seed)
    spans = []
    pos = 0
    while pos < n:
        step = int(rng.integers(1, 48))
        spans.append((pos, min(n, pos + step)))
        pos += step
    return spans


@settings(max_examples=40, deadline=None)
@given(tuples=op_streams, seed=chunk_seed)
def test_streamed_fim_phase_bitwise_identical(tuples, seed):
    model = DRAMModel(make_config())
    whole = model.phase(fim_ops=to_batch(tuples))
    acc = model.open_phase()
    for lo, hi in split_spans(len(tuples), seed):
        acc.add(fim_ops=to_batch(tuples[lo:hi]))
    assert vars(acc.close()) == vars(whole)


@settings(max_examples=40, deadline=None)
@given(seed=chunk_seed, n=st.integers(0, 400))
def test_streamed_burst_phase_bitwise_identical(seed, n):
    model = DRAMModel(make_config())
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 1 << 20, n) * 64).astype(np.int64)
    writes = rng.random(n) < 0.4
    whole = model.phase(
        addrs=addrs, is_write=writes, loose_read_bursts=5,
        stream_read_bytes=1e5,
    )
    acc = model.open_phase()
    for lo, hi in split_spans(n, seed + 1):
        acc.add(addrs=addrs[lo:hi], is_write=writes[lo:hi])
    acc.add(loose_read_bursts=5)
    assert vars(acc.close(stream_read_bytes=1e5)) == vars(whole)


@settings(max_examples=30, deadline=None)
@given(tuples=op_streams, seed=chunk_seed, n=st.integers(1, 300))
def test_streamed_mixed_phase_counters_identical(tuples, seed, n):
    """Phases mixing bursts and FIM ops: every field, floats included,
    is bit-identical however the two streams are chunked."""
    model = DRAMModel(make_config())
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 1 << 20, n) * 64).astype(np.int64)
    whole = model.phase(addrs=addrs, fim_ops=to_batch(tuples))
    acc = model.open_phase()
    fim_spans = split_spans(len(tuples), seed + 1)
    addr_spans = split_spans(n, seed + 2)
    for i in range(max(len(fim_spans), len(addr_spans))):
        kwargs = {}
        if i < len(addr_spans):
            lo, hi = addr_spans[i]
            kwargs["addrs"] = addrs[lo:hi]
        if i < len(fim_spans):
            lo, hi = fim_spans[i]
            kwargs["fim_ops"] = to_batch(tuples[lo:hi])
        acc.add(**kwargs)
    assert vars(acc.close()) == vars(whole)


def test_accumulator_rejects_use_after_close():
    model = DRAMModel(make_config())
    acc = model.open_phase()
    acc.close()
    with pytest.raises(RuntimeError):
        acc.add(loose_read_bursts=1)
    with pytest.raises(RuntimeError):
        acc.close()


# ---------------------------------------------------------------------------
# Producers: MSHR and memory path emit FimOpBatch end to end
# ---------------------------------------------------------------------------
class TestProducersEmitBatches:
    @pytest.fixture
    def mapper(self):
        return AddressMapper(
            DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1, ranks=1)
        )

    def test_add_batch_returns_batch(self, mapper):
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        addrs = np.arange(16, dtype=np.int64) * 8
        ops = mshr.add_batch(addrs, np.zeros(16, dtype=bool))
        assert isinstance(ops, FimOpBatch)
        assert isinstance(mshr.flush(), FimOpBatch)

    def test_path_drain_returns_batch(self, mapper):
        """The path hands its phase FIM ops as FimOpBatch arrays, which
        phase() takes without conversion."""
        path = FineGrainedMemoryPath(
            PiccoloCache(1024, ways=2, fg_tag_bits=4),
            CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=8),
        )
        handed = []

        class Phase:
            def add(self, fim_ops=None, **_bursts):
                handed.append(fim_ops)

        path.run(np.arange(64, dtype=np.int64) * 8, rmw=True, phase=Phase())
        path.flush(Phase())
        assert handed
        assert all(isinstance(ops, FimOpBatch) for ops in handed)
        model = DRAMModel(make_config(channels=1, ranks=1))
        for ops in handed:
            stats = model.phase(fim_ops=ops)
            assert stats.fim_gathers + stats.fim_scatters == len(ops) > 0

    def test_path_streams_into_sink(self, mapper, monkeypatch):
        """The path hands every chunk to its phase as it goes: it holds
        no stream-long FIM batch, and the phase fed chunk by chunk
        equals the stream evaluated in one piece."""
        model = DRAMModel(make_config(channels=1, ranks=1))

        def build():
            return FineGrainedMemoryPath(
                PiccoloCache(1024, ways=2, fg_tag_bits=4),
                CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=8),
            )

        rng = np.random.default_rng(11)
        stream = (rng.integers(0, 1 << 13, 2000) * 8).astype(np.int64)

        monkeypatch.setattr(units, "CHUNK_ACCESSES", stream.size)
        log = RequestLog()
        build().run(stream, rmw=True, phase=log)
        ops, addrs, writes = log.take()
        expected = model.phase(
            addrs=np.asarray(addrs, dtype=np.int64),
            is_write=np.asarray(writes, dtype=bool),
            fim_ops=to_batch(ops),
        )

        monkeypatch.setattr(units, "CHUNK_ACCESSES", 64)
        streamed = build()
        acc = model.open_phase()
        streamed.run(stream, rmw=True, phase=acc)
        assert len(streamed.fim_ops) == 0  # every chunk handed over
        assert vars(acc.close()) == vars(expected)


# ---------------------------------------------------------------------------
# Streamed vs one-piece tile phases at system level
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("system", ["Piccolo", "NMP", "GraphDyns (Cache)"])
def test_system_streamed_phase_matches_whole(system, monkeypatch):
    """256-access chunks feed each tile's phase in many adds; a chunk
    longer than any tile feeds it one add per access stream."""
    from repro.experiments.runner import clear_result_cache, run_system

    results = {}
    for chunk in (256, 1 << 20):
        monkeypatch.setattr(units, "CHUNK_ACCESSES", chunk)
        clear_result_cache()
        r = run_system(system, "PR", "TW", max_iterations=2)
        results[chunk] = (
            r.total_ns, r.memory_ns, r.compute_ns,
            vars(r.dram), r.cache_hits, r.cache_misses, r.mshr_ops,
        )
    clear_result_cache()
    assert results[256] == results[1 << 20]
