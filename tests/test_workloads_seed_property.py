"""Seed-determinism properties of the engine workload generators.

The differential suite and the ``engine-xval`` trajectory cells both
assume that :mod:`repro.dram.engine.workloads` generators are pure
functions of their arguments: the same seed must reproduce the same
request stream for any controller, and the streams themselves must be
controller agnostic (the generators never consult the engine), so the
engine and the scalar oracle (``tests/reference_engine.py``) see the
same input.  Hypothesis pins both properties.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dram.engine import DRAMEngine
from repro.dram.engine.workloads import (
    conventional_requests,
    fim_requests,
    random_mix,
    strided_addresses,
)
from repro.dram.spec import default_config

from reference_engine import ReferenceDRAMEngine

CONFIG = default_config()

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_slow
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_random_mix_is_seed_deterministic(seed, n, write_frac):
    first = random_mix(CONFIG, n, seed=seed, write_fraction=write_frac)
    second = random_mix(CONFIG, n, seed=seed, write_fraction=write_frac)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


@_slow
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=300),
)
def test_different_seeds_differ(seed, n):
    base_addrs, _ = random_mix(CONFIG, n, seed=seed)
    other_addrs, _ = random_mix(CONFIG, n, seed=seed + 1)
    assert not np.array_equal(base_addrs, other_addrs)


@_slow
@given(
    st.integers(min_value=12, max_value=18),
    st.sampled_from([2, 4, 8, 16, 32]),
    st.booleans(),
)
def test_strided_addresses_are_pure(log2_bytes, stride, single_row):
    first = strided_addresses(CONFIG, 1 << log2_bytes, stride, single_row)
    second = strided_addresses(CONFIG, 1 << log2_bytes, stride, single_row)
    np.testing.assert_array_equal(first, second)


@_slow
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=150),
    st.booleans(),
)
def test_generated_streams_are_mode_agnostic(seed, n, scatter):
    """Request streams run identically on the engine and the scalar
    oracle: generators depend on the seed and config alone, so the two
    controller implementations see byte-identical inputs and must
    produce the identical outcome."""
    addrs, is_write = random_mix(CONFIG, n, seed=seed)
    conv, conv_route = conventional_requests(CONFIG, addrs, is_write)
    fim, fim_route = fim_requests(CONFIG, addrs, scatter=scatter)
    again, again_route = conventional_requests(CONFIG, addrs, is_write)
    assert conv == again
    np.testing.assert_array_equal(conv_route, again_route)

    outcomes = {}
    for mode, cls in (("batched", DRAMEngine),
                      ("scalar", ReferenceDRAMEngine)):
        engine = cls(CONFIG, refresh_enabled=True)
        requests = [
            type(r)(**{**r.__dict__, "issue_cycle": -1, "finish_cycle": -1})
            for r in conv + fim
        ]
        route = np.concatenate([conv_route, fim_route])
        result = engine.run(requests, route)
        outcomes[mode] = (result.cycles, result.stats.acts,
                          result.stats.reads, result.stats.writes,
                          result.stats.gathers, result.stats.scatters)
    assert outcomes["batched"] == outcomes["scalar"]
