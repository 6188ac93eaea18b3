"""Per-layer host time of one simulation, observed from outside.

A traced run executes under :mod:`cProfile`; the program itself is not
modified.  Every profiled Python function (generator resumptions count
as calls) is charged to the layer of the source file that defines it.
Built-in functions have no source file, so their time is charged to the
layer of each caller, in proportion to what that caller spent in them.
A layer's time is therefore its self time: the time its own code ran,
excluding the layers it called.

The profiler adds a cost to every Python call and none to native code,
so traced runs are slower than untraced ones and the split leans toward
layers that make many small calls; the benchmark reports the slowdown as
``trace_overhead_x``.
"""

from __future__ import annotations

import cProfile
import functools
import os
from typing import Callable, Dict, Tuple

#: layer names, in reporting order
LAYERS = ("engine", "matching", "network", "comm", "stream", "app", "other")

#: source-path fragment -> layer, first match wins.  Fault injection
#: is charged to ``comm``, whose failure checks call it.  ``stream`` is
#: the whole decoupling runtime: MPIStream channels and streams plus the
#: StreamGraph and group runtime that drives stage bodies over them (the
#: halo workload programs against streams directly, and a layer that
#: some workload never enters would report a constant zero).
_RULES = (
    ("repro/simmpi/engine.py", "engine"),
    ("repro/simmpi/scheduler.py", "engine"),
    ("repro/simmpi/matching.py", "matching"),
    ("repro/simmpi/network.py", "network"),
    ("repro/simmpi/fabrics.py", "network"),
    ("repro/simmpi/placement.py", "network"),
    ("repro/simmpi/", "comm"),
    ("repro/faults/", "comm"),
    ("repro/mpistream/", "stream"),
    ("repro/api/", "stream"),
    ("repro/core/", "stream"),
    ("repro/apps/", "app"),
    ("repro/workloads/", "app"),
    ("hostbench/", "app"),
)


@functools.lru_cache(maxsize=None)
def layer_of(path: str) -> str:
    """The layer a source file belongs to."""
    norm = path.replace(os.sep, "/")
    return next((name for frag, name in _RULES if frag in norm), "other")


def _is_builtin(key) -> bool:
    return key[0] == "~"


def profile_call(fn: Callable[[], object]
                 ) -> Tuple[object, Dict[str, float], Dict[str, int]]:
    """Run ``fn()`` under the profiler.

    Returns its result, the self time of each layer in seconds, and the
    number of Python calls (including generator resumptions) each layer
    served.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    profiler.create_stats()
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for key, (_cc, ncalls, tottime, _cum, callers) in profiler.stats.items():
        if not _is_builtin(key):
            layer = layer_of(key[0])
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        # a builtin's time belongs to whoever called it
        charged = 0.0
        for caller, (_c, _n, tt, _ct) in callers.items():
            layer = "other" if _is_builtin(caller) else layer_of(caller[0])
            self_s[layer] += tt
            charged += tt
        self_s["other"] += max(0.0, tottime - charged)
    return result, self_s, calls
