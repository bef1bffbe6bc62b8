"""Measurement loop: set-ups, timed passes, host-speed probes, peak RSS
and the metric tables."""

from __future__ import annotations

import gc
import os
import pathlib
import shutil
import signal
import statistics
import tempfile
from contextlib import nullcontext
from time import perf_counter

from repro.experiments.runner import cached_result
from repro.graph.datasets import load_dataset
from spans import Tracer
from workloads import WORKLOADS, OutputCheck, cell_label, run_cell

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: fewest untraced passes per untraced run; ``run_s`` is their median
MIN_PASSES = 3
#: CPU-time interval of the peak-RSS sampler
RSS_SAMPLE_S = 0.001
#: user-CPU-time interval between two speed probes in a timed section
PROBE_INTERVAL_S = 0.002
#: median time of :func:`speed_probe` on the reference host (a 2-vCPU
#: Intel Xeon VM at 2.1 GHz); reported times are in seconds of that host
#: at this probe speed
REFERENCE_PROBE_S = 90e-6


def speed_probe() -> int:
    """Fixed ~0.1 ms host-speed probe: a bare interpreter loop.

    The simulator's time goes mostly to interpreter loops.  Over six 20 s
    runs of each workload, scaling by this loop left a smaller spread than
    scaling by a probe with NumPy scatter and sort (0.02-0.04 against
    0.04-0.07) or by one with a 16 MB gather.  It calls nothing in the
    simulator, so no change to the simulator moves it.
    """
    total = 0
    for i in range(2000):
        total += i & 7
    return total


class HostSpeed:
    """Times sections in reference seconds, sampling host speed inside them.

    While a section runs, every ``PROBE_INTERVAL_S`` of user CPU time a
    ``SIGVTALRM`` handler (no thread) times one :func:`speed_probe`.  The
    section's host seconds, minus the probes', are scaled by
    ``REFERENCE_PROBE_S`` over its mean probe.  Host speed on a shared VM
    swings by ~1.5x within seconds; probes taken during the section move
    with it, so the scaled time does not.  The probes cost ~4% of a
    section.
    """

    def __init__(self) -> None:
        self._probe_s = 0.0
        self._probes = 0
        # the first calls warm the interpreter's caches
        for _ in range(20):
            speed_probe()

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        speed_probe()
        self._probe_s += perf_counter() - start
        self._probes += 1

    def run(self, fn, *args):
        """Call ``fn(*args)``; returns (its reference seconds, its result)."""
        self._probe_s, self._probes = 0.0, 0
        # one probe up front, so a section shorter than the interval has one
        self._sample()
        before = self._probe_s
        previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.siginterrupt(signal.SIGVTALRM, False)
        start = perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
            host_s = perf_counter() - start - (self._probe_s - before)
            signal.signal(signal.SIGVTALRM, previous)
        return host_s * REFERENCE_PROBE_S * self._probes / self._probe_s, result


def timed(speed: HostSpeed | None, fn, *args):
    """(seconds, result) of ``fn(*args)``: reference seconds with a
    :class:`HostSpeed`, host seconds without."""
    if speed is not None:
        return speed.run(fn, *args)
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


class PeakAnonRSS:
    """Peak anonymous RSS, sampled on a CPU-time signal (no thread).

    A sample is one ``pread`` of ``/proc/self/statm`` (~2 us): resident
    minus shared pages is exactly ``RssAnon``.
    """

    def __init__(self) -> None:
        self.peak_pages = 0
        self._fd = -1
        self._previous = None

    @property
    def peak_mb(self) -> float:
        return self.peak_pages * os.sysconf("SC_PAGE_SIZE") / 2**20

    def sample(self, *_signal_args) -> None:
        fields = os.pread(self._fd, 128, 0).split()
        self.peak_pages = max(self.peak_pages, int(fields[1]) - int(fields[2]))

    def __enter__(self) -> "PeakAnonRSS":
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self.sample()
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        # restart interrupted system calls instead of failing them
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, RSS_SAMPLE_S, RSS_SAMPLE_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.sample()
        os.close(self._fd)


def run_pass(cells, graph, tmp_root, check, speed, tracer=None, index=0):
    """Simulate every cell once; returns (seconds, results, systems).

    Only the cell runs are timed (see :func:`timed`).  A disk-backed cell
    builds its tile store in a fresh directory, removed right after the
    cell.
    """
    seconds = 0.0
    results, systems = [], []
    with tracer.installed() if tracer is not None else nullcontext():
        for cell in cells:
            if tracer is not None:
                tracer.trace_id = f"pass{index}/{cell_label(cell)}"
            disk = cell.make_kwargs.get("tile_backing") == "disk"
            store = tempfile.mkdtemp(dir=tmp_root) if disk else None
            try:
                cell_s, (result, system) = timed(speed, run_cell, cell, graph, store)
                seconds += cell_s
            except Exception as exc:  # a failing cell is counted, not fatal
                check.check(cell, exc)
                continue
            finally:
                if store is not None:
                    shutil.rmtree(store, ignore_errors=True)
            check.check(cell, result)
            results.append(result)
            systems.append(system)
    if load_dataset.cache_info().currsize or any(
        cell.digest is not None and cached_result(cell.digest) is not None
        for cell in cells
    ):
        raise RuntimeError("a result or dataset memo was filled; "
                           "repetitions would not simulate")
    return seconds, results, systems


def simulated_counters(results, systems) -> dict[str, tuple[float, str]]:
    """Simulated-hardware counters of one pass (they repeat exactly)."""
    def total(attr):
        return sum(getattr(r, attr) for r in results)

    def dram(attr):
        return sum(getattr(r.dram, attr) for r in results)

    memos = [
        s.path.memo for s in systems
        if getattr(s, "path", None) is not None and s.path.memo is not None
    ]
    memo_hits = sum(m.hits for m in memos)
    memo_lookups = memo_hits + sum(m.misses for m in memos)
    accesses = total("cache_accesses")
    offchip = sum(r.offchip_bytes for r in results)
    return {
        "cache.accesses": (accesses, "count"),
        "cache.hit_rate": (total("cache_hits") / accesses if accesses else 0.0, "ratio"),
        "core.mshr.ops": (total("mshr_ops"), "count"),
        "core.mshr.forwarded": (total("mshr_forwarded"), "count"),
        "core.memo.lookups": (memo_lookups, "count"),
        "core.memo.hit_rate": (memo_hits / memo_lookups if memo_lookups else 0.0, "ratio"),
        "dram.acts": (dram("acts"), "count"),
        "dram.bursts": (dram("read_bursts") + dram("write_bursts"), "count"),
        "dram.fim_ops": (dram("fim_gathers") + dram("fim_scatters"), "count"),
        "sim.total_ns": (total("total_ns"), "ns"),
        "sim.useful_fraction": (total("useful_bytes") / offchip if offchip else 0.0, "ratio"),
    }


def traced_metrics(tracer, traced, untraced, covered_ns) -> dict[str, tuple[float, str]]:
    """Per-layer self time and calls per traced pass, plus trace accounting.

    ``graph.generate`` comes from the single traced set-up; every other
    layer is averaged over the traced passes.
    """
    traced_total = sum(traced)
    table: dict[str, tuple[float, str]] = {}
    for layer, (self_s, calls) in tracer.layer_totals().items():
        per = 1 if layer == "graph.generate" else len(traced)
        table[f"{layer}.self_s"] = (self_s / per, "s")
        table[f"{layer}.calls"] = (calls / per, "count")
    table["accel.self_s"] = ((traced_total - covered_ns / 1e9) / len(traced), "s")
    table["trace.run_s"] = (statistics.median(traced), "s")
    table["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s"
    )
    table["trace.coverage"] = (
        covered_ns / 1e9 / traced_total if traced_total else 0.0, "ratio"
    )
    return table


def measure(
    workload_name: str, seed: int, seconds: float, trace: bool,
    tmp_root: pathlib.Path, spans_dir: pathlib.Path,
) -> tuple[OutputCheck, dict[str, tuple[float, str]], list[str]]:
    """Set up and run one workload; returns (check, metric table, report lines).

    Untraced: ``SETUP_REPEATS`` set-ups, then passes until ``seconds``
    have passed and at least ``MIN_PASSES`` ran; times are reported in
    reference seconds (see :class:`HostSpeed`).  Traced: one traced
    set-up, then alternating untraced and traced passes until ``seconds``
    have passed and one of each ran; all times are host seconds, and no
    speed probe runs.
    """
    workload = WORKLOADS[workload_name]
    cells = workload.resolve()
    tracer = Tracer() if trace else None
    speed = HostSpeed() if tracer is None else None
    lines = [f"workload {workload.name}, seed {seed}: {len(cells)} cells "
             f"({workload.why})"]
    with PeakAnonRSS() as rss:
        setup_times = []
        graph = None
        for _ in range(1 if tracer is not None else SETUP_REPEATS):
            graph = None
            gc.collect()
            with tracer.installed() if tracer is not None else nullcontext():
                setup_s, graph = timed(speed, workload.build_graph, seed)
            setup_times.append(setup_s)
        check = OutputCheck(workload.name, cells, graph, seed)

        untraced, traced = [], []
        covered_ns = 0
        started = perf_counter()
        while True:
            use_tracer = tracer is not None and len(traced) < len(untraced)
            gc.collect()
            covered_before = tracer.top_level_ns if use_tracer else 0
            pass_s, results, systems = run_pass(
                cells, graph, tmp_root, check, speed,
                tracer if use_tracer else None, len(untraced) + len(traced),
            )
            (traced if use_tracer else untraced).append(pass_s)
            if use_tracer:
                covered_ns += tracer.top_level_ns - covered_before
            if perf_counter() - started < seconds:
                continue
            if len(untraced) >= (MIN_PASSES if tracer is None else 1) and (
                tracer is None or traced
            ):
                break
        counters = simulated_counters(results, systems)
        edges_per_pass = sum(r.edges_processed for r in results)

    unit = "host" if tracer is not None else "reference"
    lines.append(f"untraced passes: {len(untraced)} "
                 f"({', '.join(f'{t:.3f}' for t in untraced)} {unit} s)")
    if tracer is None:
        run_s = statistics.median(untraced)
        table = {
            "run_s": (run_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss.peak_mb, "MB"),
            "sim_medges_per_s": (
                edges_per_pass / 1e6 / run_s if run_s else 0.0, "Medges/s"
            ),
        }
        lines.append(f"set-ups: {len(setup_times)} "
                     f"({', '.join(f'{t:.3f}' for t in setup_times)} reference s)")
    else:
        table = traced_metrics(tracer, traced, untraced, covered_ns)
        table.update(counters)
        spans_path = spans_dir / f"{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"traced passes: {len(traced)} "
                     f"({', '.join(f'{t:.3f}' for t in traced)} s); "
                     f"{len(tracer.spans)} spans written to {spans_path}")
    lines += [f"  {name:<28} {value:>16.6g} {unit}"
              for name, (value, unit) in table.items()]
    return check, table, lines
