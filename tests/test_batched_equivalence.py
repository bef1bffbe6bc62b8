"""Property-based equivalence: batched engines vs the per-address walk.

The batched memory path (``access_many`` / ``add_batch`` / ``run``)
must be *event-for-event* identical to the per-address reference in
``reference_paths`` on any access stream: same CacheStats, same
fill/write-back sequences, same FIM-operation streams, same post-flush
state.  These tests drive randomized address streams (split into random
batch boundaries to exercise cross-batch state) through both and
compare everything observable.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.conventional import ConventionalCache
from repro.cache.fine8b import EightByteLineCache
from repro.cache.variants import FIG11_VARIANTS
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import (
    ConventionalMemoryPath,
    FineGrainedMemoryPath,
    LocalityMonitor,
    counter_delta,
)
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.address import AddressMapper
from repro.dram.spec import DEVICES, DRAMConfig
from repro.utils import units

from reference_paths import (
    ReferenceConventionalPath,
    ReferenceFineGrainedPath,
    RequestLog,
    scalar_batch,
)


def make_mapper():
    return AddressMapper(
        DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1, ranks=1)
    )


# 8 B-aligned addresses in a window small enough to thrash 1 KB caches.
addr_streams = st.lists(
    st.integers(min_value=0, max_value=(1 << 14) - 1).map(lambda v: v * 8),
    min_size=1,
    max_size=300,
)
chunk_seed = st.integers(min_value=0, max_value=2**31 - 1)
rmw_flags = st.booleans()


CACHE_FACTORIES = {
    "piccolo-lru": lambda: PiccoloCache(1024, ways=4, fg_tag_bits=4),
    "piccolo-rrip": lambda: PiccoloCache(
        1024, ways=4, fg_tag_bits=4, policy="rrip"
    ),
    "piccolo-quota": lambda: _quota_cache(),
    "conventional": lambda: ConventionalCache(1024, ways=2),
}
# Every Fig. 11 registry design rides along automatically, at a small
# geometry that thrashes (the registry is the single source of truth:
# a design added there enters this suite unasked).
CACHE_FACTORIES.update(
    {
        f"fig11-{name.lower()}": (lambda _f=factory: _f(1024, 4))
        for name, factory in FIG11_VARIANTS.items()
    }
)


def _quota_cache():
    cache = PiccoloCache(2048, ways=8, fg_tag_bits=4)
    cache.set_way_quota(4)  # quota 2: exercises multi-line tag groups
    return cache


def split_chunks(addrs, seed):
    """Deterministic random batch boundaries (including size-1 batches)."""
    rng = np.random.default_rng(seed)
    arr = np.asarray(addrs, dtype=np.int64)
    if arr.size <= 1:
        return [arr]
    n_cuts = int(rng.integers(0, min(6, arr.size - 1) + 1))
    cuts = sorted(rng.choice(np.arange(1, arr.size), size=n_cuts, replace=False))
    return np.split(arr, cuts)


def cache_signature(cache):
    sig = dict(vars(cache.stats).items())
    # every counter a batched engine declares beyond CacheStats
    for name in getattr(cache, "EXTRA_COUNTERS", ()):
        sig[name] = getattr(cache, name)
    return sig


def assert_call_matches(batched, scalar, chunk, rmw):
    """One ``access_many`` call against the per-address walk: same
    result and event stream, same state (recency order included).
    Returns the batched result."""
    res_b = batched.access_many(chunk, rmw)
    res_s = scalar_batch(scalar, chunk, rmw)
    assert res_b.accesses == res_s.accesses
    assert res_b.hits == res_s.hits
    np.testing.assert_array_equal(res_b.ev_addr, res_s.ev_addr)
    np.testing.assert_array_equal(res_b.ev_is_wb, res_s.ev_is_wb)
    np.testing.assert_array_equal(res_b.ev_bytes, res_s.ev_bytes)
    assert batched.state_digest() == scalar.state_digest()
    return res_b


def assert_matches_scalar(batched, scalar, batches):
    """Feed ``(addrs, rmw)`` batches to both caches; everything observable
    must agree, recency order included (``state_digest`` after every
    batch)."""
    for chunk, rmw in batches:
        assert_call_matches(batched, scalar, chunk, rmw)
    assert cache_signature(batched) == cache_signature(scalar)
    assert batched.flush() == scalar.flush()


@pytest.mark.parametrize("kind", sorted(CACHE_FACTORIES))
@settings(max_examples=40, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed, rmw=rmw_flags)
def test_access_many_matches_scalar_loop(kind, addrs, seed, rmw):
    assert_matches_scalar(
        CACHE_FACTORIES[kind](),
        CACHE_FACTORIES[kind](),
        [(chunk, rmw) for chunk in split_chunks(addrs, seed)],
    )


@settings(max_examples=40, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed)
def test_mixed_read_write_batches(addrs, seed):
    """Alternating rmw flags across batches (cross-batch dirty state)."""
    batched = PiccoloCache(1024, ways=4, fg_tag_bits=4)
    scalar = PiccoloCache(1024, ways=4, fg_tag_bits=4)
    for i, chunk in enumerate(split_chunks(addrs, seed)):
        rmw = i % 2 == 0
        res_b = batched.access_many(chunk, rmw)
        res_s = scalar_batch(scalar, chunk, rmw)
        np.testing.assert_array_equal(res_b.ev_addr, res_s.ev_addr)
        np.testing.assert_array_equal(res_b.ev_is_wb, res_s.ev_is_wb)
        assert batched.state_digest() == scalar.state_digest()
    assert cache_signature(batched) == cache_signature(scalar)
    assert batched.flush() == scalar.flush()


# ---------------------------------------------------------------------------
# PiccoloCache's sector-keyed engine on figure-shaped streams: every set
# runs through thousands of sector replacements at its way quota, and
# the edge cases of the per-call sector map and group deques.
# ---------------------------------------------------------------------------
@st.composite
def piccolo_tile_streams(draw):
    """A (num_sets, fg_tag_bits, tags_per_set) geometry and 2k-4k
    accesses over 4-8x the cache's capacity (``addr_streams`` gives at
    most 300 accesses on 1-2 sets)."""
    num_sets = draw(st.sampled_from([4, 8, 16]))
    fg_tag_bits = draw(st.integers(4, 6))
    tags_per_set = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.integers(4, 8)) * num_sets * 8 * 128
    n = draw(st.integers(2000, 4000))
    addrs = rng.integers(0, span // 8, size=n, dtype=np.int64) * 8
    return (num_sets, fg_tag_bits, tags_per_set), addrs


@pytest.mark.parametrize("rmw", [True, False])
@pytest.mark.parametrize("policy", ["lru", "rrip"])
@settings(max_examples=15, deadline=None)
@given(stream=piccolo_tile_streams(), seed=chunk_seed)
def test_piccolo_tile_streams_match_scalar_loop(policy, rmw, stream, seed):
    (num_sets, fg_tag_bits, tags_per_set), addrs = stream

    def build():
        cache = PiccoloCache(
            num_sets * 8 * 128, ways=8, fg_tag_bits=fg_tag_bits, policy=policy
        )
        cache.set_way_quota(tags_per_set)
        return cache

    assert_matches_scalar(
        build(), build(), [(chunk, rmw) for chunk in split_chunks(addrs, seed)]
    )


def one_set_cache(ways, tags_per_set):
    """A single-set Piccolo cache (16 sectors per line, 16 fg-tags)."""
    cache = PiccoloCache(ways * 128, ways=ways, fg_tag_bits=4)
    cache.set_way_quota(tags_per_set)
    return cache


def sectors(cache, *parts):
    """Sector addresses of (tag, fg, offset) triples in set 0."""
    return np.asarray(
        [cache._sector_addr(tag, 0, fg, off) for tag, fg, off in parts],
        dtype=np.int64,
    )


def event_list(res):
    return list(zip(res.ev_addr.tolist(), res.ev_is_wb.tolist()))


A, B, C = 1, 2, 3


def test_piccolo_evicted_dirty_line_retouched_in_same_call():
    """An allocation evicts another tag's dirty line; the same call then
    re-touches that line's sectors, which miss, refill and write back
    the line they displace, in order."""
    batched, scalar = one_set_cache(2, 2), one_set_cache(2, 2)  # quota 1
    assert_call_matches(
        batched, scalar, sectors(batched, (A, 0, 0), (A, 0, 1), (B, 0, 0)), True
    )
    res = assert_call_matches(
        batched, scalar, sectors(batched, (C, 0, 0), (A, 0, 0), (A, 0, 1)), True
    )
    a00, a01, b00, c00 = sectors(batched, (A, 0, 0), (A, 0, 1), (B, 0, 0), (C, 0, 0))
    assert res.hits == 0
    assert event_list(res) == [
        (c00, False), (a00, True), (a01, True),  # C evicts A's dirty line
        (a00, False), (b00, True),  # A's refill evicts B's line
        (a01, False),  # at quota again: a sector replacement
    ]
    assert batched.line_evictions == 2
    assert_matches_scalar(batched, scalar, [])


def test_piccolo_eviction_empties_a_group():
    """Evictions shrink a group below its quota (its next miss allocates
    a whole line instead of replacing a sector) and then empty it."""
    batched, scalar = one_set_cache(4, 2), one_set_cache(4, 2)  # quota 2
    assert_call_matches(
        batched, scalar,
        sectors(batched, (A, 0, 0), (A, 1, 0), (B, 0, 0), (B, 1, 0)), True,
    )
    res = assert_call_matches(
        batched, scalar,
        sectors(batched, (C, 0, 0), (A, 2, 0), (C, 1, 0), (C, 2, 0), (A, 3, 0)),
        True,
    )
    assert res.hits == 0
    # C's two allocations, A's two after dropping below quota, and C's
    # sector replacement at quota
    assert (batched.line_evictions, batched.sector_replacements) == (4, 1)
    assert B not in batched._tag[0].tolist()
    assert_matches_scalar(batched, scalar, [])


def test_piccolo_group_reaches_quota_mid_call():
    """A group allocates up to its quota and then replaces sectors in
    its LRU line within the same call."""
    batched, scalar = one_set_cache(4, 2), one_set_cache(4, 2)  # quota 2
    res = assert_call_matches(
        batched, scalar,
        sectors(batched, (A, 0, 0), (A, 1, 0), (A, 2, 0), (A, 0, 0)), True,
    )
    a00, a10, a20 = sectors(batched, (A, 0, 0), (A, 1, 0), (A, 2, 0))
    assert event_list(res) == [
        (a00, False), (a10, False),
        (a20, False), (a00, True),  # replaces A00 in the LRU line
        (a00, False), (a10, True),  # now A10's line is the LRU
    ]
    assert (batched.line_evictions, batched.sector_replacements) == (0, 2)
    assert_matches_scalar(batched, scalar, [])


def test_piccolo_sector_map_rebuilt_from_arrays():
    """Each call rebuilds its sector map from the arrays the previous
    call wrote: resident sectors hit, and their dirty flags decide the
    write-backs (a read call leaves a sector clean)."""
    batched, scalar = one_set_cache(2, 2), one_set_cache(2, 2)  # quota 1
    a01, a10, a21, a30, a41 = sectors(
        batched, (A, 0, 1), (A, 1, 0), (A, 2, 1), (A, 3, 0), (A, 4, 1)
    )
    assert_call_matches(
        batched, scalar, sectors(batched, (A, 0, 0), (A, 0, 1), (A, 1, 0)), True
    )
    res = assert_call_matches(
        batched, scalar, np.asarray([a01, a10, a21, a30]), False
    )
    assert res.hits == 2
    assert event_list(res) == [(a21, False), (a01, True), (a30, False), (a10, True)]
    res = assert_call_matches(batched, scalar, np.asarray([a21, a30, a41]), False)
    assert res.hits == 2
    assert event_list(res) == [(a41, False)]  # A21 was filled by a read
    assert_matches_scalar(batched, scalar, [])


# ---------------------------------------------------------------------------
# ConventionalCache's first-touch pass (inherited by the 8 B-line cache):
# within one call, re-touches resolve as hits without a walk as long as no
# first-touch miss evicts a line the call touches again; otherwise that
# set alone replays its runs one by one.
# ---------------------------------------------------------------------------
@st.composite
def run_heavy_streams(draw):
    """2k-4k accesses in same-block runs over a small block pool, so one
    set sees many runs, re-touches and evictions per call (the short
    ``addr_streams`` rarely put more than a few runs in one set)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(1 << 8, size=draw(st.integers(1, 64)), replace=False)
    n = draw(st.integers(2000, 4000))
    runs = rng.choice(pool, size=n)
    blocks = np.repeat(runs, rng.integers(1, 9, size=n))[:n]
    return blocks * 64 + rng.integers(0, 8, size=n) * 8


@pytest.mark.parametrize("kind", ["conventional", "fig11-8b-line"])
@settings(max_examples=30, deadline=None)
@given(addrs=run_heavy_streams(), seed=chunk_seed, rmw=rmw_flags)
def test_run_heavy_streams_match_scalar_loop(kind, addrs, seed, rmw):
    assert_matches_scalar(
        CACHE_FACTORIES[kind](),
        CACHE_FACTORIES[kind](),
        [(chunk, rmw) for chunk in split_chunks(addrs, seed)],
    )


#: 2 sets x 4 ways at either line size: even blocks map to set 0, odd to 1
LINE_CACHES = {
    "conventional": lambda: ConventionalCache(512, ways=4),
    "8b-line": lambda: EightByteLineCache(64, ways=4),
}
#: written first, so every resident line is dirty and evictions write back
WARM_BLOCKS = [0, 2, 4, 6, 1, 3, 5, 7]
#: set 0 switches tiles: first touches evict the four old lines, then the
#: fifth to seventh new blocks evict new lines whose runs are over
TILE_SWITCH = [8, 10, 8, 12, 10, 14, 12, 14, 16, 18, 16, 20, 18, 20]
#: set 1: block 9 is touched, evicted by four new blocks, then re-touched
EVICT_RETOUCH = [9, 11, 13, 15, 17, 9]
#: both kinds of set in one call (sets are independent, so interleaving
#: keeps each set's sequence)
BOTH = [
    b for pair in itertools.zip_longest(TILE_SWITCH, EVICT_RETOUCH)
    for b in pair if b is not None
]


def line_addrs(cache, blocks):
    """One access per block id, cycling through the words of the line."""
    words = cache.line_bytes // 8
    return np.asarray(
        [b * cache.line_bytes + 8 * (i % words) for i, b in enumerate(blocks)],
        dtype=np.int64,
    )


@pytest.fixture
def replayed_sets(monkeypatch):
    """Records each set the first-touch pass hands to the run-by-run
    replay."""
    sets = []
    replay = ConventionalCache._replay_runs

    def spy(self, s, *args):
        sets.append(s)
        return replay(self, s, *args)

    monkeypatch.setattr(ConventionalCache, "_replay_runs", spy)
    return sets


@pytest.mark.parametrize("kind", sorted(LINE_CACHES))
@pytest.mark.parametrize("is_write", [True, False])
@pytest.mark.parametrize(
    "blocks, replays",
    [
        (TILE_SWITCH, []),
        (EVICT_RETOUCH, [1]),
        (BOTH, [1]),
    ],
    ids=["tile-switch", "evict-retouch", "both"],
)
def test_first_touch_pass_matches_scalar(
    replayed_sets, kind, is_write, blocks, replays
):
    batched = LINE_CACHES[kind]()
    scalar = LINE_CACHES[kind]()
    assert_matches_scalar(
        batched,
        scalar,
        [
            (line_addrs(batched, WARM_BLOCKS), True),
            (line_addrs(batched, blocks), is_write),
        ],
    )
    assert replayed_sets == replays


@settings(max_examples=40, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed, wb_seed=chunk_seed)
def test_mshr_add_batch_matches_scalar(addrs, seed, wb_seed):
    mapper = make_mapper()
    rng = np.random.default_rng(wb_seed)
    batched = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
    scalar = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
    for chunk in split_chunks(addrs, seed):
        is_wb = rng.random(chunk.size) < 0.5
        ops_b = batched.add_batch(chunk, is_wb)
        ops_s = []
        for addr, wb in zip(chunk.tolist(), is_wb.tolist()):
            ops_s.extend(
                scalar.add_write(addr) if wb else scalar.add_read(addr)
            )
        assert ops_b == ops_s
    assert vars(batched.stats) == vars(scalar.stats)
    assert batched.flush() == scalar.flush()


@pytest.mark.parametrize(
    "kind",
    ["piccolo-lru", "piccolo-rrip", "conventional"]
    + [f"fig11-{name.lower()}" for name in FIG11_VARIANTS],
)
@pytest.mark.parametrize("monitor", [False, True])
@settings(max_examples=25, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed, rmw=rmw_flags)
def test_fine_grained_path_batched_matches_scalar(kind, monitor, addrs, seed, rmw):
    """Whole-path equivalence: cache + MSHR (+ locality monitor)."""
    mapper = make_mapper()

    def build(path_cls):
        cache = CACHE_FACTORIES[kind]()
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        mon = LocalityMonitor(window=8, threshold=0.5) if monitor else None
        return path_cls(cache, mshr, locality_monitor=mon)

    path_b = build(FineGrainedMemoryPath)
    path_s = build(ReferenceFineGrainedPath)
    log_b, log_s = RequestLog(), RequestLog()
    chunks = split_chunks(addrs, seed)
    for chunk in chunks:
        path_b.run(chunk, rmw, log_b)
        path_s.run(chunk, rmw, log_s)
    path_b.flush(log_b)
    path_s.flush(log_s)
    ops_b, addr_b, wr_b = log_b.take()
    ops_s, addr_s, wr_s = log_s.take()
    assert ops_b == ops_s
    assert addr_b == addr_s
    assert wr_b == wr_s
    assert cache_signature(path_b.cache) == cache_signature(path_s.cache)
    assert vars(path_b.mshr.stats) == vars(path_s.mshr.stats)


@settings(max_examples=25, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed, rmw=rmw_flags)
def test_conventional_path_batched_matches_scalar(addrs, seed, rmw):
    path_b = ConventionalMemoryPath(ConventionalCache(1024, ways=2))
    path_s = ReferenceConventionalPath(ConventionalCache(1024, ways=2))
    log_b, log_s = RequestLog(), RequestLog()
    for chunk in split_chunks(addrs, seed):
        path_b.run(chunk, rmw, log_b)
        path_s.run(chunk, rmw, log_s)
    path_b.flush(log_b)
    path_s.flush(log_s)
    assert log_b.take() == log_s.take()
    assert cache_signature(path_b.cache) == cache_signature(path_s.cache)


# ---------------------------------------------------------------------------
# Replay: a stationary run's catch-up (repro.accel.base) stops running a
# path once a batch starts in the state the same batch of the previous
# round started in, and takes that round's requests, end snapshot and
# counter delta instead.  A path that replays so must match one that
# simulates every batch.  Each path kind digests and snapshots different
# state: the cache alone (conventional), cache + MSHR (fine-grained), and
# cache + MSHR + the locality monitor + the bypass burst watermarks
# (monitor).
# ---------------------------------------------------------------------------
REPLAY_PATH_KINDS = ("fine-grained", "conventional", "monitor")
REPLAY_CACHE_KINDS = ["piccolo-lru"] + [
    f"fig11-{name.lower()}" for name in FIG11_VARIANTS
]


def build_replay_path(path_kind, cache):
    if path_kind == "conventional":
        return ConventionalMemoryPath(cache)
    mshr = CollectionExtendedMSHR(make_mapper(), num_entries=16, items_per_op=4)
    mon = LocalityMonitor(window=8, threshold=0.5) if path_kind == "monitor" else None
    return FineGrainedMemoryPath(cache, mshr, locality_monitor=mon)


def bypass_state(path):
    """The monitor state and burst watermarks a monitor path keys on."""
    return (
        path.monitor.state_tuple(),
        path._last_bypass_fill,
        path._last_bypass_wb,
    )


def run_logged(path, chunk):
    log = RequestLog()
    path.run(chunk, True, log)
    return log.take()


def assert_replay_transparent(path_kind, make_cache, chunks, rounds):
    """Run ``rounds`` rmw passes over ``chunks`` through a path that
    simulates every batch and one that replays from the first batch
    whose start state repeats the last simulated round's: requests,
    counters, state and the flush must agree.  Returns the number of
    replayed batches."""
    replayed = build_replay_path(path_kind, make_cache())
    live = build_replay_path(path_kind, make_cache())
    previous = None
    replays = 0
    for _ in range(rounds):
        expected = [run_logged(live, chunk) for chunk in chunks]
        got, digests, counters = [], [], []
        for index, chunk in enumerate(chunks):
            state = replayed.state_digest()
            if previous is not None and previous["digests"][index] == state:
                got += previous["requests"][index:]
                replayed.state_restore(previous["end_state"])
                replayed.counter_apply(counter_delta(
                    previous["end_counters"], previous["counters"][index]
                ))
                replays += len(chunks) - index
                break
            digests.append(state)
            counters.append(replayed.counter_vector())
            got.append(run_logged(replayed, chunk))
        else:
            previous = dict(
                digests=digests,
                counters=counters,
                requests=got,
                end_state=replayed.state_snapshot(),
                end_counters=replayed.counter_vector(),
            )
        assert got == expected
        assert replayed.state_digest() == live.state_digest()
        assert cache_signature(replayed.cache) == cache_signature(live.cache)
        if path_kind == "monitor":
            # a replay must restore the state the next batch is keyed on
            assert bypass_state(replayed) == bypass_state(live)
    log_replayed, log_live = RequestLog(), RequestLog()
    replayed.flush(log_replayed)
    live.flush(log_live)
    assert log_replayed.take() == log_live.take()
    # the flush settles the useful-byte counters of every line still
    # resident, so this also checks the touched/dirty masks a replay
    # restored
    assert cache_signature(replayed.cache) == cache_signature(live.cache)
    if path_kind != "conventional":
        assert vars(replayed.mshr.stats) == vars(live.mshr.stats)
    return replays


@pytest.mark.parametrize(
    "path_kind, kind",
    [
        # the fine-grained cases keep their bare cache-kind ids
        pytest.param(
            path_kind,
            kind,
            id=kind if path_kind == "fine-grained" else f"{path_kind}-path-{kind}",
        )
        for path_kind in REPLAY_PATH_KINDS
        for kind in REPLAY_CACHE_KINDS
    ],
)
@settings(max_examples=25, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed)
def test_replay_memo_is_transparent(path_kind, kind, addrs, seed):
    """Feeding the same batch sequence three times (the later rounds may
    replay the first) must match a path that simulates every batch."""
    chunks = split_chunks(addrs, seed)
    replays = assert_replay_transparent(
        path_kind, CACHE_FACTORIES[kind], chunks, rounds=3
    )
    assert replays <= 2 * len(chunks)


@pytest.mark.parametrize(
    "path_kind, kind",
    [
        ("conventional", "conventional"),
        ("fine-grained", "piccolo-lru"),
        ("monitor", "piccolo-lru"),
    ],
)
def test_replay_memo_replays_repeated_rounds(path_kind, kind):
    """56 sequential words in three batches, five rounds: the state
    settles after two rounds, so later rounds must replay (the random
    streams above rarely repeat a state)."""
    chunks = np.split(np.arange(56, dtype=np.int64) * 8, [20, 41])
    replays = assert_replay_transparent(
        path_kind, CACHE_FACTORIES[kind], chunks, rounds=5
    )
    assert replays > 0


# ---------------------------------------------------------------------------
# Chunked tile streaming: the chunk length (units.CHUNK_ACCESSES) must be
# invisible in the produced counters, fill/write-back sequences, and
# FIM-op streams -- including lengths that don't divide the batch evenly,
# and across repeated rounds that start from a warm state.  Each case
# sets the constant and compares against one chunk longer than the
# stream (WHOLE, also the last case).
# ---------------------------------------------------------------------------
#: a chunk longer than any stream here: the whole stream in one chunk
WHOLE = 1 << 20
CHUNK_SIZES = [1, 7, 64, WHOLE]


def run_chunked(path, chunk, batches, rmw):
    """Run ``batches`` through ``path`` and flush it, ``chunk`` accesses
    at a time; returns the requests it handed over."""
    log = RequestLog()
    with mock.patch.object(units, "CHUNK_ACCESSES", chunk):
        for batch in batches:
            path.run(batch, rmw, log)
        path.flush(log)
    return log.take()


@pytest.mark.parametrize(
    "kind", ["piccolo-lru", "conventional", "fig11-sectored", "fig11-amoeba"]
)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("monitor", [False, True])
@settings(max_examples=15, deadline=None)
@given(addrs=addr_streams, rmw=rmw_flags)
def test_chunked_fine_grained_path_matches_whole_tile(
    kind, chunk_size, monitor, addrs, rmw
):
    mapper = make_mapper()

    def build():
        cache = CACHE_FACTORIES[kind]()
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        mon = LocalityMonitor(window=8, threshold=0.5) if monitor else None
        return FineGrainedMemoryPath(cache, mshr, locality_monitor=mon)

    chunked = build()
    whole = build()
    # a second round starts from the first one's warm state
    rounds = [np.asarray(addrs, dtype=np.int64)] * 2
    assert run_chunked(chunked, chunk_size, rounds, rmw) == run_chunked(
        whole, WHOLE, rounds, rmw
    )
    assert cache_signature(chunked.cache) == cache_signature(whole.cache)
    assert vars(chunked.mshr.stats) == vars(whole.mshr.stats)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@settings(max_examples=15, deadline=None)
@given(addrs=addr_streams, rmw=rmw_flags)
def test_chunked_conventional_path_matches_whole_tile(chunk_size, addrs, rmw):
    chunked = ConventionalMemoryPath(ConventionalCache(1024, ways=2))
    whole = ConventionalMemoryPath(ConventionalCache(1024, ways=2))
    rounds = [np.asarray(addrs, dtype=np.int64)] * 2
    assert run_chunked(chunked, chunk_size, rounds, rmw) == run_chunked(
        whole, WHOLE, rounds, rmw
    )
    assert cache_signature(chunked.cache) == cache_signature(whole.cache)


@pytest.mark.parametrize("chunk_size", [3, 50])
def test_chunked_matches_scalar_loop_directly(chunk_size):
    """Chunked batched execution against the unchunked per-address
    reference: chunk boundaries and the engine must both stay
    invisible."""
    mapper = make_mapper()
    rng = np.random.default_rng(13)
    stream = rng.integers(0, 1 << 12, 500).astype(np.int64) * 8

    def build(path_cls):
        cache = PiccoloCache(1024, ways=4, fg_tag_bits=4)
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        return path_cls(cache, mshr)

    chunked = build(FineGrainedMemoryPath)
    scalar = build(ReferenceFineGrainedPath)
    assert run_chunked(chunked, chunk_size, [stream], True) == run_chunked(
        scalar, WHOLE, [stream], True
    )
    assert cache_signature(chunked.cache) == cache_signature(scalar.cache)
    assert vars(chunked.mshr.stats) == vars(scalar.mshr.stats)


@settings(max_examples=40, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed)
def test_locality_monitor_observe_many_matches_scalar(addrs, seed):
    mon_b = LocalityMonitor(window=8, threshold=0.5)
    mon_s = LocalityMonitor(window=8, threshold=0.5)
    for chunk in split_chunks(addrs, seed):
        flags = mon_b.observe_many(chunk)
        expected = []
        for a in chunk.tolist():
            mon_s.observe(a)
            expected.append(mon_s.bypass)
        assert flags.tolist() == expected
        assert mon_b.state_tuple() == mon_s.state_tuple()


@pytest.mark.parametrize("kind", ["piccolo-lru", "conventional"])
def test_bypass_segments_batched_matches_scalar(kind):
    """Deterministic sequential stream: the monitor flips to bypass and
    back, exercising the burst-coalescing path in the engine and the
    reference."""
    mapper = make_mapper()

    def build(path_cls):
        cache = CACHE_FACTORIES[kind]()
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        mon = LocalityMonitor(window=8, threshold=0.75)
        return path_cls(cache, mshr, locality_monitor=mon)

    rng = np.random.default_rng(7)
    seq = np.arange(256, dtype=np.int64) * 8
    rand = rng.integers(0, 1 << 12, 96) * 8
    stream = np.concatenate([seq, rand, seq + (1 << 16), rand])
    path_b = build(FineGrainedMemoryPath)
    path_s = build(ReferenceFineGrainedPath)
    log_b, log_s = RequestLog(), RequestLog()
    for chunk in np.split(stream, [100, 300, 420, 600]):
        path_b.run(chunk, True, log_b)
        path_s.run(chunk, True, log_s)
    path_b.flush(log_b)
    path_s.flush(log_s)
    out_b = log_b.take()
    assert out_b == log_s.take()
    # the sequential phases must actually have produced bypass bursts
    assert len(out_b[1]) > 0
    assert cache_signature(path_b.cache) == cache_signature(path_s.cache)
    assert vars(path_b.mshr.stats) == vars(path_s.mshr.stats)


def test_locality_monitor_counts_all_window_pairs():
    """The first access of a window seeds the next delta instead of
    being dropped: window=4 sees 3 pairs per window, so a pure
    sequential stream reaches a 3/3 fraction (the old implementation
    topped out at (window-1)/window and fired late)."""
    monitor = LocalityMonitor(window=4, threshold=1.0)
    for i in range(4):
        monitor.observe(i * 8)
    assert monitor.bypass  # 3 of 3 pairs sequential

    # one stray address per window keeps it below a 2/3 threshold
    monitor = LocalityMonitor(window=4, threshold=0.75)
    stream = [0, 8, 4096, 4104, 8192, 8200, 12288]
    for a in stream:
        monitor.observe(a)
    assert not monitor.bypass
