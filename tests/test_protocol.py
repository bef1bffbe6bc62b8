"""Table I on the engine's own Sec. VI traces: every per-bank rule binds.

The command-level engine expresses a gather and a scatter with standard
commands only; the PRE/ACT pair to the virtual rows supplies the window
that hides the in-bank column accesses.  Each case takes one real trace
-- a gather and a scatter on row 1 of one bank, then an ordinary read of
that row -- and moves or edits a single command: :class:`TraceChecker`
must name the rule it breaks.  Because the virtual rows are ordinary
rows to the controller, the sequences pass with no knowledge of FIM.
"""

import dataclasses

import pytest

from repro.dram.engine import DRAMEngine, Request, RequestType
from repro.dram.engine.checker import EngineProtocolViolation, TraceChecker
from repro.dram.engine.commands import Command, CommandType
from repro.dram.spec import DEVICES, DRAMConfig

ACT, PRE, RD, WR = (CommandType.ACT, CommandType.PRE, CommandType.RD,
                    CommandType.WR)
SPEC = DEVICES["DDR4_2400_x16"]
CONFIG = DRAMConfig(spec=SPEC, channels=1, ranks=1)


def run(requests, config=CONFIG):
    return DRAMEngine(config, refresh_enabled=False).run(requests)


@pytest.fixture(scope="module")
def result():
    return run([
        Request(RequestType.GATHER, 0, 0, row=1, offsets=(1, 2, 3),
                req_id=0),
        Request(RequestType.SCATTER, 0, 0, row=1, offsets=(4, 5), req_id=1),
        Request(RequestType.READ, 0, 0, row=1, column=3, req_id=2),
    ])


@pytest.fixture(scope="module")
def timing(result):
    return result.timing


def at(trace, req_id, kind, virtual=True, nth=0):
    """Index of the ``nth`` matching command of one request."""
    return [i for i, c in enumerate(trace)
            if c.req_id == req_id and c.kind is kind
            and c.virtual is virtual][nth]


def check(result, trace):
    TraceChecker(result.timing, ranks=1).check_trace(trace)


def moved(result, index, cycle):
    trace = list(result.traces[0])
    trace[index] = dataclasses.replace(trace[index], cycle=cycle)
    return trace


class TestTimingRules:
    def test_trcd_violation(self, result, timing):
        trace = result.traces[0]
        i = at(trace, 0, WR)
        bad = moved(result, i, trace[0].cycle + timing.tRCD - 1)
        with pytest.raises(EngineProtocolViolation, match="tRCD"):
            check(result, bad)

    def test_trcd_satisfied(self, result, timing):
        trace = result.traces[0]
        assert (trace[0].kind, trace[0].virtual) == (ACT, False)
        assert trace[at(trace, 0, WR)].cycle == trace[0].cycle + timing.tRCD
        check(result, trace)

    def test_tccd_violation(self, result, timing):
        trace = result.traces[0]
        offsets = trace[at(trace, 1, WR)]
        i = at(trace, 1, WR, nth=1)
        assert trace[i].column == 8
        bad = moved(result, i, offsets.cycle + timing.tCCD_L - 1)
        with pytest.raises(EngineProtocolViolation, match="tCCD"):
            check(result, bad)

    def test_tras_violation(self, result, timing):
        trace = result.traces[0]
        bad = moved(result, at(trace, 0, PRE),
                    trace[0].cycle + timing.tRAS - 1)
        with pytest.raises(EngineProtocolViolation, match="tRAS"):
            check(result, bad)

    def test_trp_violation(self, result, timing):
        trace = result.traces[0]
        pre = trace[at(trace, 0, PRE)]
        bad = moved(result, at(trace, 0, ACT), pre.cycle + timing.tRP - 1)
        with pytest.raises(EngineProtocolViolation, match="tRP"):
            check(result, bad)

    def test_twr_violation(self, result, timing):
        """Write recovery counts from the end of the write data, i.e.
        after the write latency tCWL and the burst, not from the WR."""
        trace = result.traces[0]
        offsets = trace[at(trace, 0, WR)]
        i = at(trace, 0, PRE)
        assert trace[i].cycle == offsets.data_end + timing.tWR
        assert offsets.data_end == offsets.cycle + timing.tCWL + timing.tBL
        with pytest.raises(EngineProtocolViolation, match="tWR"):
            check(result, moved(result, i, trace[i].cycle - 1))

    def test_rd_without_open_row(self, result):
        """The ordinary read after the scatter hits the row that the
        virtual ACT re-opened; without that ACT the bank is closed."""
        trace = list(result.traces[0])
        del trace[at(trace, 1, ACT)]
        with pytest.raises(EngineProtocolViolation, match="no open row"):
            check(result, trace)

    def test_wrong_open_row(self, result):
        trace = list(result.traces[0])
        i = at(trace, 2, RD, virtual=False)
        trace[i] = dataclasses.replace(trace[i], row=2)
        with pytest.raises(EngineProtocolViolation, match="not the open row"):
            check(result, trace)

    def test_double_activate(self, result):
        trace = list(result.traces[0])
        i = at(trace, 0, RD)
        trace.insert(i + 1, Command(trace[i].cycle + 1, ACT, 0, 0, row=2))
        with pytest.raises(EngineProtocolViolation, match="already open"):
            check(result, trace)

    def test_banks_independent(self):
        requests = [
            Request(RequestType.GATHER, 0, bank, row=1, offsets=(1, 2),
                    req_id=i)
            for i, bank in enumerate((0, 4))
        ]
        result = run(requests)
        trace = result.traces[0]
        check(result, trace)
        # The two banks' sequences overlap in time.
        first_of_4 = min(c.cycle for c in trace if c.bank == 4)
        last_of_0 = max(c.cycle for c in trace if c.bank == 0)
        assert first_of_4 < last_of_0


class TestPiccoloCompliance:
    """The Sec. VI sequences, as the engine issues them."""

    def test_gather_sequence_is_protocol_legal(self, result):
        trace = result.traces[0]
        assert [(c.kind, c.virtual) for c in trace if c.req_id == 0] == [
            (ACT, False), (WR, True), (PRE, True), (ACT, True), (RD, True),
        ]
        check(result, trace)

    def test_scatter_sequence_is_protocol_legal(self, result):
        trace = result.traces[0]
        assert [(c.kind, c.virtual) for c in trace if c.req_id == 1] == [
            (WR, True), (WR, True), (PRE, True), (ACT, True), (WR, True),
        ]
        check(result, trace)

    def test_gather_gap_covers_eight_tccd(self, result, timing):
        """The headline feasibility numbers of Sec. VI, in clocks."""
        trace = result.traces[0]
        offsets, data = trace[at(trace, 0, WR)], trace[at(trace, 0, RD)]
        assert data.cycle - offsets.data_end >= 8 * timing.tCCD_L
        assert timing.ns(8 * timing.tCCD_L) == pytest.approx(40.0, abs=0.2)
        assert timing.tWR + timing.tRP + timing.tRCD >= 8 * timing.tCCD_L

    def test_all_devices_window_check(self):
        for name, spec in sorted(DEVICES.items()):
            config = DRAMConfig(spec=spec, channels=1, ranks=1)
            result = run([Request(RequestType.GATHER, 0, 0, row=1,
                                  offsets=(1,), req_id=0)], config)
            trace = result.traces[0]
            offsets, data = trace[at(trace, 0, WR)], trace[at(trace, 0, RD)]
            window = config.fim_items_per_op * result.timing.tCCD_L
            assert data.cycle - offsets.data_end >= window, name
            check(result, trace)
