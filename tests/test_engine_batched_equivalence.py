"""Differential suite: the engine vs the scalar oracle.

The vectorized columnar controller behind :class:`DRAMEngine` is an
independent reimplementation of the scalar FR-FCFS walk in
``tests/reference_engine.py`` (:class:`ReferenceDRAMEngine`), which
stays untouched as the bit-exactness oracle.  Hypothesis drives both
over random conventional, FIM and mixed workloads -- across device
grades, channel/rank geometries, queue depths, staggered arrivals and
refresh on/off -- and every observable must match bit-for-bit: the full
command trace, every stats field, per-request issue/finish cycles, and
the total duration.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dram.engine import DRAMEngine, check_engine_result
from repro.dram.engine.workloads import (
    conventional_requests,
    fim_requests,
)
from repro.dram.spec import DEVICES, DRAMConfig, default_config

from reference_engine import ReferenceDRAMEngine

GRADES = sorted(DEVICES)

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_STATS_FIELDS = (
    "cycles", "acts", "pres", "reads", "writes", "refreshes",
    "gathers", "scatters", "data_bus_clocks", "total_latency",
    "finished_requests",
)


def _config(grade, channels, ranks):
    return DRAMConfig(spec=DEVICES[grade], channels=channels, ranks=ranks)


def _fresh(requests):
    """Independent request copies (the engine mutates issue/finish)."""
    return [dataclasses.replace(r, issue_cycle=-1, finish_cycle=-1)
            for r in requests]


def assert_bit_identical(config, requests, channels, *, queue_depth=32,
                         refresh=True):
    """Run the engine and the oracle on copies of one workload and diff
    everything."""
    scalar = ReferenceDRAMEngine(config, queue_depth=queue_depth,
                                 refresh_enabled=refresh)
    batched = DRAMEngine(config, queue_depth=queue_depth,
                         refresh_enabled=refresh)
    s_requests = _fresh(requests)
    b_requests = _fresh(requests)
    s = scalar.run(s_requests, channels)
    b = batched.run(b_requests, channels)

    assert b.cycles == s.cycles
    assert b.time_ns == s.time_ns
    for field in _STATS_FIELDS:
        assert getattr(b.stats, field) == getattr(s.stats, field), field
    assert len(b.traces) == len(s.traces)
    for b_trace, s_trace in zip(b.traces, s.traces):
        assert b_trace == s_trace
    for b_req, s_req in zip(b_requests, s_requests):
        assert b_req.issue_cycle == s_req.issue_cycle
        assert b_req.finish_cycle == s_req.finish_cycle

    # The batched trace must also stand on its own: protocol-clean.
    assert check_engine_result(b) > 0
    return b, s


@st.composite
def geometries(draw):
    grade = draw(st.sampled_from(GRADES))
    channels = draw(st.sampled_from([1, 2]))
    ranks = draw(st.sampled_from([1, 2, 4]))
    queue_depth = draw(st.sampled_from([2, 4, 32]))
    refresh = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=1, max_value=200))
    return grade, channels, ranks, queue_depth, refresh, seed, n


def _addrs(config, rng, n, fp_log2=22):
    footprint = min(config.capacity_bytes, 1 << fp_log2)
    return rng.integers(0, footprint // 8, size=n, dtype=np.int64) * 8


@_slow
@given(geometries(), st.floats(min_value=0.0, max_value=1.0))
def test_conventional_traffic_bit_identical(params, write_frac):
    grade, channels, ranks, queue_depth, refresh, seed, n = params
    config = _config(grade, channels, ranks)
    rng = np.random.default_rng(seed)
    addrs = _addrs(config, rng, n)
    is_write = rng.random(n) < write_frac
    requests, route = conventional_requests(config, addrs, is_write)
    assert_bit_identical(config, requests, route,
                         queue_depth=queue_depth, refresh=refresh)


@_slow
@given(geometries())
def test_fim_traffic_bit_identical(params):
    grade, channels, ranks, queue_depth, refresh, seed, n = params
    config = _config(grade, channels, ranks)
    rng = np.random.default_rng(seed)
    addrs = _addrs(config, rng, n)
    requests, route = fim_requests(config, addrs, scatter=bool(seed % 2))
    assert_bit_identical(config, requests, route,
                         queue_depth=queue_depth, refresh=refresh)


@_slow
@given(geometries())
def test_staggered_arrivals_bit_identical(params):
    """Arrival gaps force idle jumps and partial queues in both walks."""
    grade, channels, ranks, queue_depth, refresh, seed, n = params
    config = _config(grade, channels, ranks)
    rng = np.random.default_rng(seed)
    addrs = _addrs(config, rng, n)
    is_write = rng.random(n) < 0.4
    requests, route = conventional_requests(config, addrs, is_write)
    arrivals = np.cumsum(rng.integers(0, 400, size=n))
    for request, arrival in zip(requests, arrivals):
        request.arrival = int(arrival)
    assert_bit_identical(config, requests, route,
                         queue_depth=queue_depth, refresh=refresh)


@_slow
@given(geometries())
def test_mixed_fim_and_conventional_bit_identical(params):
    """Interleaved FIM programs and column bursts contend for banks."""
    grade, channels, ranks, queue_depth, refresh, seed, n = params
    config = _config(grade, channels, ranks)
    rng = np.random.default_rng(seed)
    conv_addrs = _addrs(config, rng, max(1, n // 2))
    fim_addrs = _addrs(config, rng, max(1, n // 2))
    conv, conv_route = conventional_requests(
        config, conv_addrs, rng.random(conv_addrs.size) < 0.3
    )
    fim, fim_route = fim_requests(config, fim_addrs,
                                  scatter=bool(seed % 2))
    requests = conv + fim
    route = np.concatenate([conv_route, fim_route])
    assert_bit_identical(config, requests, route,
                         queue_depth=queue_depth, refresh=refresh)


def test_write_drain_hysteresis_bit_identical():
    """An all-write burst drives the WRITE_HI/WRITE_LO drain mode."""
    config = default_config()
    rng = np.random.default_rng(7)
    addrs = _addrs(config, rng, 300, fp_log2=20)
    requests, route = conventional_requests(
        config, addrs, np.ones(addrs.size, dtype=bool)
    )
    b, s = assert_bit_identical(config, requests, route, queue_depth=32)
    assert b.stats.writes == 300


def test_tiny_queue_depth_backpressure_bit_identical():
    """queue_depth=1 forces admission stalls on every request."""
    config = default_config()
    rng = np.random.default_rng(13)
    addrs = _addrs(config, rng, 120, fp_log2=20)
    is_write = rng.random(addrs.size) < 0.5
    requests, route = conventional_requests(config, addrs, is_write)
    assert_bit_identical(config, requests, route, queue_depth=1)
