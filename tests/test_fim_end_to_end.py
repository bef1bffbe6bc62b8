"""End-to-end FIM validation: random gather/scatter programmes on every grade.

The strongest form of the paper's FPGA validation claim: for arbitrary
interleavings of scatters and gathers on arbitrary rows/offsets of one
bank, the command-level engine's trace must (a) contain only standard
DDR commands, (b) satisfy every JEDEC rule of ``TraceChecker`` (refresh
on), and (c) move data bit-exactly when replayed through the functional
FIM bank, with every in-bank operation inside its Sec. VI window.  The
programmes run on all six grades and on the long-burst design of the
three 32 B-burst grades (eight offsets per operation, Sec. VIII-B).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fim import FimBank
from repro.dram.engine import (
    DRAMEngine,
    Request,
    RequestType,
    check_engine_result,
)
from repro.dram.spec import DEVICES, DRAMConfig
from repro.validate.end_to_end import replay_fim_trace

ROWS = 4
ROW_WORDS = min(spec.row_words for spec in DEVICES.values())
CONFIGS = [
    DRAMConfig(spec=spec, channels=1, ranks=1) for spec in DEVICES.values()
] + [
    DRAMConfig(spec=spec, channels=1, ranks=1, long_burst_fim=True)
    for spec in DEVICES.values() if spec.burst_bytes == 32
]


@st.composite
def operations(draw):
    """A programme of scatters and gathers on one bank."""
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from([RequestType.GATHER,
                                     RequestType.SCATTER]))
        row = draw(st.integers(min_value=0, max_value=ROWS - 1))
        offsets = draw(
            st.lists(
                st.integers(min_value=0, max_value=ROW_WORDS - 1),
                min_size=1, max_size=8, unique=True,
            )
        )
        values = draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << 62)),
                min_size=len(offsets), max_size=len(offsets),
            )
        )
        ops.append((kind, row, offsets, values))
    return ops


@settings(max_examples=40, deadline=None)
@given(ops=operations(), seed=st.integers(min_value=0, max_value=2**31))
def test_random_programmes_are_legal_and_bit_exact(ops, seed):
    for config in CONFIGS:
        spec = config.spec
        grade = f"{spec.name}{' long-burst' if config.long_burst_fim else ''}"
        rng = np.random.default_rng(seed)
        bank = FimBank(config, rows=ROWS)
        for r in range(ROWS):
            bank.cells[r] = rng.integers(
                0, 1 << 63, size=spec.row_words, dtype=np.uint64
            )
        # The shadow model: plain numpy arrays updated directly.
        shadow = bank.cells.copy()

        items = config.fim_items_per_op
        requests = [
            Request(kind, rank=0, bank=0, row=row,
                    offsets=tuple(offsets[:items]), req_id=i)
            for i, (kind, row, offsets, _) in enumerate(ops)
        ]
        values = {i: op[3][:items] for i, op in enumerate(ops)}
        result = DRAMEngine(config, refresh_enabled=True).run(requests)
        check_engine_result(result)
        gathered = replay_fim_trace(bank, result, values)

        # One bank runs its programmes one at a time, in finish order.
        for request in sorted(requests, key=lambda r: r.finish_cycle):
            columns = list(request.offsets)
            if request.kind is RequestType.SCATTER:
                shadow[request.row, columns] = values[request.req_id]
            else:
                assert gathered[request.req_id] == (
                    shadow[request.row, columns].tolist()
                ), f"{grade}: gather must match the shadow model"

        # Final state check: precharge and compare every row.
        bank.precharge()
        assert np.array_equal(bank.cells, shadow), grade
