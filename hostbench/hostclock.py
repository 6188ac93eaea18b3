"""Wall-clock timing corrected for the host's speed at the moment.

On a shared host the interpreter's speed drifts by half or more over
seconds, as neighbours come and go, and a drift that long moves the
median of a whole run.  Each timed call is therefore bracketed by a
fixed calibration kernel: a small discrete-event loop written here, in
plain Python, with the simulator's instruction mix (generator resumes,
a heap, per-rank mailboxes, slotted objects, dict updates) but none of
its code.  A call's time is reported as

    wall time * REFERENCE_S / (mean of the calibrations around it)

that is, the time the call would take on a host that runs the kernel in
``REFERENCE_S``.  Changes to the simulator move the reported times;
changes in host speed move the calibration with them and cancel.

The kernel and ``REFERENCE_S`` must never change: every reported time
is measured against them.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable, Tuple

#: what the calibration kernel takes on the reference host
REFERENCE_S = 0.025


class _Msg:
    __slots__ = ("src", "tag", "size")

    def __init__(self, src, tag, size):
        self.src = src
        self.tag = tag
        self.size = size


def _kernel(nproc: int = 64, steps: int = 300) -> None:
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    boxes = [[] for _ in range(nproc)]

    def proc(me):
        seen = {}
        for i in range(steps):
            boxes[(me * 31 + i * 17) % nproc].append(
                _Msg(me, i & 7, (i * 13) % 4096))
            box = boxes[me]
            while box:
                m = box.pop()
                seen[m.tag] = seen.get(m.tag, 0) + m.size
            yield ((me + i) % 5) * 1e-6
        return seen

    seq = 0
    for me in range(nproc):
        push(heap, (0.0, seq, proc(me)))
        seq += 1
    while heap:
        t, _, gen = pop(heap)
        try:
            dt = gen.send(None)
        except StopIteration:
            continue
        seq += 1
        push(heap, (t + dt, seq, gen))


def calibrate() -> float:
    """Wall seconds of one calibration kernel run."""
    gc.collect()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class HostClock:
    """Times calls and scales them to the reference host's speed."""

    def __init__(self):
        self._before = calibrate()

    def measure(self, fn: Callable[[], object]
                ) -> Tuple[object, float, float]:
        """Run ``fn()``; return its result, its wall seconds, and the
        factor that scales host seconds to reference seconds."""
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = calibrate()
        scale = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return out, wall, scale
