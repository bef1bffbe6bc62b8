"""Full-stack integration: VCM miss stream -> MSHR ops -> engine.

Drives real graph-iteration addresses through the Piccolo miss path
(Piccolo-cache + collection-extended MSHR), converts the resulting
scatter/gather operations into command-level engine requests, and
checks that (a) the engine replays them protocol-clean and (b) its
duration stays in the expected band of the phase model that the figure
sweeps use.  This is the deepest end-to-end slice of the reproduction:
algorithm -> cache -> MSHR -> DDR commands.
"""

import numpy as np
import pytest

from repro.accel.layout import MemoryLayout
from repro.algorithms import make_algorithm
from repro.algorithms.vcm import VertexCentricEngine
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import FineGrainedMemoryPath
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.engine import (
    DRAMEngine,
    Request,
    RequestType,
    check_engine_result,
)
from repro.dram.spec import default_config
from repro.dram.system import DRAMModel
from repro.graph.datasets import load_dataset

from reference_paths import RequestLog, to_batch


@pytest.fixture(scope="module")
def fim_ops():
    """Scatter/gather ops from six BFS iterations on the UU stand-in."""
    config = default_config()
    model = DRAMModel(config)
    graph = load_dataset("UU")
    spec = make_algorithm("BFS", graph)
    engine = VertexCentricEngine(spec, tile_width=2048)
    cache = PiccoloCache(1024, ways=8)
    mshr = CollectionExtendedMSHR(
        model.mapper, num_entries=64,
        items_per_op=config.fim_items_per_op,
    )
    path = FineGrainedMemoryPath(cache, mshr)
    layout = MemoryLayout()
    log = RequestLog()
    for trace in engine.run_iter(6):
        for tile in trace.tiles:
            if tile.edge_dst.size:
                path.run(layout.vtemp_addrs(tile.edge_dst), rmw=True, phase=log)
    path.flush(log)
    ops, _, _ = log.take()
    return config, ops


def ops_to_requests(config, ops):
    banks_per_rank = config.spec.banks_per_rank
    requests, channels = [], []
    for i, op in enumerate(ops):
        local_bank = op.bank % banks_per_rank
        kind = RequestType.SCATTER if op.is_scatter else RequestType.GATHER
        requests.append(Request(
            kind=kind, rank=op.rank, bank=local_bank, row=op.row,
            offsets=tuple(range(op.items)), req_id=i,
        ))
        channels.append(op.channel)
    return requests, np.asarray(channels, dtype=np.int64)


class TestMissStreamOnEngine:
    def test_ops_produced(self, fim_ops):
        _, ops = fim_ops
        assert len(ops) > 16
        assert any(op.is_scatter for op in ops)
        assert any(not op.is_scatter for op in ops)

    def test_ops_row_confined(self, fim_ops):
        config, ops = fim_ops
        for op in ops:
            assert 1 <= op.items <= config.fim_items_per_op

    def test_engine_replay_protocol_clean(self, fim_ops):
        config, ops = fim_ops
        engine = DRAMEngine(config, refresh_enabled=True)
        requests, channels = ops_to_requests(config, ops)
        result = engine.run(requests, channels)
        assert result.stats.gathers + result.stats.scatters == len(ops)
        assert check_engine_result(result) > 0

    def test_engine_agrees_with_phase_model(self, fim_ops):
        config, ops = fim_ops
        engine = DRAMEngine(config, refresh_enabled=False)
        requests, channels = ops_to_requests(config, ops)
        engine_ns = engine.run(requests, channels).time_ns
        phase_ns = DRAMModel(config).phase(fim_ops=to_batch(ops)).time_ns
        assert 0.4 < engine_ns / phase_ns < 3.0
