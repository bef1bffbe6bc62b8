"""Property-based invariants of the DRAM episode timing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.spec import DEVICES, DRAMConfig
from repro.dram.system import DRAMModel

from reference_paths import FimRow, to_batch


def make_model(ranks=4, channels=1, window=32):
    config = DRAMConfig(
        spec=DEVICES["DDR4_2400_x16"], channels=channels, ranks=ranks
    )
    return DRAMModel(config, scheduler_window=window)


block_streams = st.lists(
    st.integers(min_value=0, max_value=(1 << 22) - 1), min_size=1, max_size=300
)


@settings(max_examples=50, deadline=None)
@given(blocks=block_streams)
def test_time_positive_and_bounded_by_serial_sum(blocks):
    """Phase time is positive and never exceeds fully-serial service."""
    model = make_model()
    spec = model.spec
    addrs = np.asarray(blocks, dtype=np.int64) * 64
    stats = model.phase(addrs=addrs)
    assert stats.time_ns > 0
    # Fully serial worst case: every access opens its own row.
    serial = len(blocks) * (spec.tRC + spec.tRCD + spec.tCCD) + 1000
    assert stats.time_ns <= serial


@settings(max_examples=50, deadline=None)
@given(blocks=block_streams)
def test_subset_never_slower(blocks):
    """Removing requests never increases the phase time."""
    model = make_model()
    addrs = np.asarray(blocks, dtype=np.int64) * 64
    t_full = model.phase(addrs=addrs).time_ns
    t_half = model.phase(addrs=addrs[: max(1, len(blocks) // 2)]).time_ns
    assert t_half <= t_full + 1e-6


@settings(max_examples=50, deadline=None)
@given(blocks=block_streams)
def test_burst_conservation(blocks):
    """Every request becomes exactly one burst (reads here)."""
    model = make_model()
    addrs = np.asarray(blocks, dtype=np.int64) * 64
    stats = model.phase(addrs=addrs)
    assert stats.read_bursts == len(blocks)
    assert stats.write_bursts == 0


@settings(max_examples=50, deadline=None)
@given(blocks=block_streams)
def test_acts_bounded_by_requests_and_floor(blocks):
    """1 <= activations <= requests (episodes merge same-row runs)."""
    model = make_model()
    addrs = np.asarray(blocks, dtype=np.int64) * 64
    stats = model.phase(addrs=addrs)
    assert 1 <= stats.acts <= len(blocks)


@settings(max_examples=50, deadline=None)
@given(
    blocks=block_streams,
    window=st.sampled_from([1, 8, 64]),
)
def test_larger_scheduler_window_never_hurts_activations(blocks, window):
    """Row-hit-first reordering with a larger window cannot create more
    episodes than in-order service."""
    addrs = np.asarray(blocks, dtype=np.int64) * 64
    in_order = make_model(window=1).phase(addrs=addrs)
    windowed = make_model(window=window).phase(addrs=addrs)
    assert windowed.acts <= in_order.acts


@settings(max_examples=30, deadline=None)
@given(
    items=st.lists(st.integers(min_value=1, max_value=8), min_size=1,
                   max_size=50),
    scatter=st.booleans(),
)
def test_fim_burst_accounting(items, scatter):
    """Offset + data bursts per op follow the device geometry exactly."""
    model = make_model()
    config = model.config
    ops = [
        FimRow(channel=0, rank=i % 4, bank=i % 32, row=i, items=n,
              is_scatter=scatter)
        for i, n in enumerate(items)
    ]
    stats = model.phase(fim_ops=to_batch(ops))
    n_ops = len(items)
    assert stats.fim_offset_bursts == n_ops * config.fim_offset_bursts
    assert stats.internal_words == sum(items)
    if scatter:
        assert stats.fim_scatters == n_ops
        assert stats.read_bursts == 0
    else:
        assert stats.fim_gathers == n_ops
        # one data burst back per gather on a 64 B-burst device
        assert stats.read_bursts == n_ops


@settings(max_examples=30, deadline=None)
@given(nbytes=st.integers(min_value=64, max_value=1 << 24))
def test_stream_time_linear_in_bytes(nbytes):
    """Stream service time tracks bytes / peak bandwidth closely."""
    model = make_model()
    stats = model.phase(stream_read_bytes=nbytes)
    ideal = nbytes / model.config.peak_bandwidth_gbps
    assert stats.time_ns >= ideal - 1e-6
    assert stats.time_ns <= ideal + model.latency_ns() + model.spec.tBURST * 2
