"""In-process stack sampler that charges host time to this repo's layers.

A layer is a module of ``repro`` (``sim.engine``, ``service.daemon``, ...)
or a whole package (``cache``, ``dram``, ...), plus ``asyncio``.  Every
``SIGPROF`` (``ITIMER_PROF``, asked for every 1 ms of process CPU time
and delivered no faster than the kernel's tick) walks the interrupted
stack once:

* its *self* sample goes to the innermost frame that belongs to a layer.
  Frames outside every layer (stdlib, this benchmark's own files, and
  ``repro`` modules that are no layer, such as ``hpc.cluster``) are
  skipped, so their time is charged to the nearest layer that called
  them.  ``asyncio`` frames are a layer of their own, so event-loop
  machinery is charged to ``asyncio`` rather than to its caller;
* its *busy* sample goes to every distinct layer on the stack.

Counts stay in memory until the worker reports them; ``run.py`` turns
them into seconds by scaling each share to the traced wall time.
Sampling, not ``cProfile``, because a profiler's per-call cost inflates
the layers that make many small calls.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from typing import Dict, Optional

#: The layers the ledger reports, each as ``<layer>.self_s`` and
#: ``<layer>.busy_s``.  ``ecc`` is deliberately absent: no workload's
#: hot path runs the codec (the cycle model charges correction time in
#: ``core.policies``).
LAYERS = (
    "sim.engine", "sim.node", "workloads", "cpu", "cache",
    "core.policies", "mem_ctrl", "dram", "perf.sweep", "fastmodel",
    "hpc.scheduler", "hpc.simulator", "service.soak", "service.daemon",
    "service.sharding", "fleet.registry", "service.ha", "service.lease",
    "service.arbitration", "obs", "asyncio",
)

_LAYER_SET = frozenset(LAYERS)
_MISSING = object()

#: Sampling period in seconds of process CPU time.
INTERVAL_S = 0.001


class LayerMap:
    """Maps a source file name to the layer it belongs to (or None)."""

    def __init__(self, repro_dir: str, asyncio_dir: str):
        self.repro_dir = os.path.join(os.path.abspath(repro_dir), "")
        self.asyncio_dir = os.path.join(os.path.abspath(asyncio_dir), "")

    def layer_of(self, filename: str) -> Optional[str]:
        if filename.startswith(self.asyncio_dir):
            return "asyncio"
        if not filename.startswith(self.repro_dir) or \
                not filename.endswith(".py"):
            return None
        module = filename[len(self.repro_dir):-3].replace(os.sep, ".")
        if module in _LAYER_SET:
            return module
        package = module.split(".", 1)[0]
        return package if package in _LAYER_SET else None


class StackSampler:
    """Counts self and busy samples per layer while running.

    ``span_code`` is an optional code object whose presence anywhere on
    the stack is counted separately (the ledger uses
    ``NodeSimulation.__init__`` for ``sim.node.construct_s``).
    """

    def __init__(self, layer_map: LayerMap, span_code=None):
        self.layer_map = layer_map
        self.span_code = span_code
        self.samples = 0
        self.span_samples = 0
        self.self_counts: Counter = Counter()
        self.busy_counts: Counter = Counter()
        self._layer_by_code: Dict[object, Optional[str]] = {}
        self._previous = None

    def record(self, frame) -> None:
        """Attribute one sample to the stack ending at ``frame``."""
        cache = self._layer_by_code
        self_layer = None
        seen = set()
        in_span = False
        while frame is not None:
            code = frame.f_code
            layer = cache.get(code, _MISSING)
            if layer is _MISSING:
                layer = self.layer_map.layer_of(code.co_filename)
                cache[code] = layer
            if layer is not None:
                if self_layer is None:
                    self_layer = layer
                seen.add(layer)
            if code is self.span_code:
                in_span = True
            frame = frame.f_back
        self.samples += 1
        if self_layer is not None:
            self.self_counts[self_layer] += 1
        for layer in seen:
            self.busy_counts[layer] += 1
        if in_span:
            self.span_samples += 1

    def _on_signal(self, signum, frame) -> None:
        self.record(frame)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
