"""Ablation -- locality-monitor fallback (Sec. VIII-A).

For regular (sequential) access patterns, FIM wastes bandwidth on offset
bursts; the paper suggests a locality monitor that falls back to normal
bursts.  This ablation runs a sequential sweep and a random sweep through
the fine-grained path with and without the monitor.
"""

import numpy as np

from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import FineGrainedMemoryPath, LocalityMonitor
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.spec import default_config
from repro.dram.system import DRAMModel


def run_path(addrs, monitor):
    config = default_config()
    model = DRAMModel(config)
    cache = PiccoloCache(4096, ways=8, fg_tag_bits=4)
    mshr = CollectionExtendedMSHR(model.mapper, num_entries=64)
    path = FineGrainedMemoryPath(cache, mshr, locality_monitor=monitor)
    phase = model.open_phase()
    path.run(addrs, rmw=False, phase=phase)
    path.flush(phase)
    return phase.close()


def collect_rows():
    rng = np.random.default_rng(0)
    sequential = (np.arange(64 * 1024, dtype=np.int64) * 8)
    random = (rng.integers(0, 1 << 22, 64 * 1024) * 8).astype(np.int64)
    rows = []
    for name, addrs in (("sequential", sequential), ("random", random)):
        plain = run_path(addrs, monitor=None)
        monitored = run_path(addrs, monitor=LocalityMonitor())
        rows.append(
            {
                "pattern": name,
                "plain_ns": plain.time_ns,
                "monitored_ns": monitored.time_ns,
                "monitor_gain": plain.time_ns / monitored.time_ns,
            }
        )
    return rows


def test_ablation_locality_monitor(run_figure):
    rows = run_figure("Ablation: locality-monitor fallback", collect_rows)
    by_pattern = {r["pattern"]: r for r in rows}
    # Sequential traffic benefits from the fallback (offset bursts saved).
    assert by_pattern["sequential"]["monitor_gain"] > 1.0
    # Random traffic must not regress materially under the monitor.
    assert by_pattern["random"]["monitor_gain"] > 0.9
