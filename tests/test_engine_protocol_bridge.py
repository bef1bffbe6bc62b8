"""Clock bridge: the engine's cycle-domain traces hold in nanoseconds.

:class:`TraceChecker` enforces the integer-clock table of
:func:`timing_from_spec`.  A trace it accepts meets the device's
nanosecond constraints only because the table rounds every core
constraint of the :class:`DeviceSpec` up to whole clocks; these cases
pin that rounding on every grade and run the conventional and FIM
workloads through the checker with refresh on.  On FIM traces they also
measure the Sec. VI window in nanoseconds: each request's first
window-bound command issues at least ``items x tCCD`` after its buffer
writes land.
"""

import numpy as np
import pytest

from repro.dram.engine import CommandType, DRAMEngine, check_engine_result
from repro.dram.engine.timing import timing_from_spec
from repro.dram.engine.workloads import (
    conventional_requests,
    fim_requests,
    random_mix,
    strided_addresses,
)
from repro.dram.spec import DEVICES, DRAMConfig, default_config


def assert_rounds_up(spec, table):
    """Each core constraint, in whole clocks, covers the spec's ns."""
    for name in ("tRCD", "tRP", "tRAS", "tWR", "tCL"):
        assert table.ns(getattr(table, name)) >= getattr(spec, name) - 1e-9, (
            spec.name, name)
    assert table.ns(table.tCCD_L) >= spec.tCCD - 1e-9, (spec.name, "tCCD")


def replay(config, requests, channels):
    result = DRAMEngine(config, refresh_enabled=True).run(requests, channels)
    checked = check_engine_result(result)
    assert_rounds_up(config.spec, result.timing)
    return result, checked


def fim_windows_ns(result):
    """Per FIM request: ns from its buffer writes' data end to its first
    command after the virtual ACT."""
    ready, swapped, windows = {}, set(), {}
    for cmd in (c for trace in result.traces for c in trace):
        if not cmd.virtual or cmd.req_id in windows:
            continue
        if cmd.kind is CommandType.ACT:
            swapped.add(cmd.req_id)
        elif cmd.kind is not CommandType.PRE:
            if cmd.req_id in swapped:
                windows[cmd.req_id] = result.timing.ns(
                    cmd.cycle - ready[cmd.req_id])
            else:
                ready[cmd.req_id] = max(ready.get(cmd.req_id, 0),
                                        cmd.data_end)
    return windows


def assert_fim_windows(config, result):
    windows = fim_windows_ns(result)
    assert len(windows) == result.stats.gathers + result.stats.scatters
    needed = config.fim_items_per_op * config.spec.tCCD
    assert min(windows.values()) >= needed - 1e-9


@pytest.fixture(scope="module")
def config():
    return default_config()


class TestConventionalTraces:
    def test_sequential_reads(self, config):
        addrs = np.arange(0, 64 * 300, 64, dtype=np.int64)
        requests, channels = conventional_requests(config, addrs)
        _, checked = replay(config, requests, channels)
        assert checked > 300

    def test_random_mix(self, config):
        addrs, is_write = random_mix(config, 800, seed=21)
        requests, channels = conventional_requests(config, addrs, is_write)
        _, checked = replay(config, requests, channels)
        assert checked > 800


class TestFimTraces:
    def test_gather_sequences(self, config):
        addrs = strided_addresses(config, 1 << 16, 8, single_row=True)
        requests, channels = fim_requests(config, addrs)
        result, _ = replay(config, requests, channels)
        assert result.stats.gathers > 0
        assert_fim_windows(config, result)

    def test_scatter_sequences(self, config):
        addrs = strided_addresses(config, 1 << 15, 8, single_row=True)
        requests, channels = fim_requests(config, addrs, scatter=True)
        result, _ = replay(config, requests, channels)
        assert result.stats.scatters > 0
        assert_fim_windows(config, result)

    def test_multi_row_gathers(self, config):
        addrs = strided_addresses(config, 1 << 16, 8, single_row=False)
        requests, channels = fim_requests(config, addrs)
        result, _ = replay(config, requests, channels)
        assert result.stats.acts > 1
        assert_fim_windows(config, result)

    @pytest.mark.parametrize("grade", sorted(DEVICES))
    def test_every_grade(self, grade):
        spec = DEVICES[grade]
        assert_rounds_up(spec, timing_from_spec(spec))
        grade_config = DRAMConfig(spec=spec, channels=1, ranks=2)
        addrs = strided_addresses(grade_config, 1 << 14, 8,
                                  single_row=True)
        requests, channels = fim_requests(grade_config, addrs)
        result, _ = replay(grade_config, requests, channels)
        assert_fim_windows(grade_config, result)

    def test_window_condition_reported(self, config):
        """DDR4-2400 hides 8 x tCCD_L inside tWR + tRP + tRCD (Sec. VI)
        in whole clocks as well as in ns."""
        assert config.fim_window_ok
        table = timing_from_spec(config.spec)
        assert (table.tWR + table.tRP + table.tRCD
                >= config.fim_items_per_op * table.tCCD_L)
