"""Span tracing for the benchmark's traced run.

The benchmark's own wrappers go around the simulator's public entry
points of each layer; nothing inside the program is instrumented.
:meth:`Tracer.installed` patches them in for the duration of a ``with``
block and restores the originals on exit, so untraced runs in the same
process execute the unwrapped code.

A span records its layer name, start and end (``perf_counter_ns``), the
span that caused it, and the trace it belongs to (one trace per cell).
A layer's self time is its spans' durations minus the time of their
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

#: layer name -> (module, class or None for a module function, attributes)
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "graph.generate": [
        ("repro.graph.generators", None, ("rmat", "erdos_renyi", "community_graph")),
    ],
    "graph.tiles": [("repro.graph.partition", "TiledCSR", ("__init__",))],
    "algorithms.vcm": [("repro.algorithms.vcm", "VertexCentricEngine", ("step",))],
    "cache.piccolo": [("repro.core.piccolo_cache", "PiccoloCache", ("access_many",))],
    "cache.conventional": [
        ("repro.cache.conventional", "ConventionalCache", ("access_many",)),
    ],
    "core.mshr": [
        ("repro.core.collection_mshr", "CollectionExtendedMSHR", ("add_batch", "flush")),
    ],
    "core.memory_path": [
        ("repro.core.memory_path", "FineGrainedMemoryPath", ("run",)),
        ("repro.core.memory_path", "ConventionalMemoryPath", ("run",)),
    ],
    "dram.phase": [
        ("repro.dram.system", "DRAMModel", ("phase",)),
        ("repro.dram.system", "PhaseAccumulator", ("add", "close")),
    ],
}

# span fields, kept as lists for cheap in-place updates
_NAME, _START, _END, _PARENT, _CHILD_NS, _TRACE = range(6)


class Tracer:
    """In-memory span recorder for the traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: identifier shared by the spans of one cell
        self.trace_id = ""
        #: total duration of spans that have no parent
        self.top_level_ns = 0

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, perf_counter_ns(), 0, parent, 0, self.trace_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = end = perf_counter_ns()
                stack.pop()
                if parent < 0:
                    self.top_level_ns += end - span[_START]
                else:
                    spans[parent][_CHILD_NS] += end - span[_START]

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every layer's entry points for the ``with`` block."""
        saved = []
        try:
            for layer, targets in LAYERS.items():
                for module_name, class_name, attrs in targets:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                    for attr in attrs:
                        original = vars(owner)[attr]
                        saved.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Layer -> (self seconds, calls), every layer of :data:`LAYERS`."""
        totals = {layer: [0, 0] for layer in LAYERS}
        for span in self.spans:
            entry = totals[span[_NAME]]
            entry[0] += span[_END] - span[_START] - span[_CHILD_NS]
            entry[1] += 1
        return {layer: (ns / 1e9, calls) for layer, (ns, calls) in totals.items()}

    def write(self, path: pathlib.Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": span[_NAME],
                    "start_ns": span[_START],
                    "end_ns": span[_END],
                    "parent": span[_PARENT] if span[_PARENT] >= 0 else None,
                    "trace": span[_TRACE],
                }) + "\n")
