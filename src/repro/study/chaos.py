"""``study.chaos`` — a registry app that misbehaves on demand.

The resilient runner needs something to be resilient *to*: this app is
a tiny deterministic workload whose config can flip it into every
failure mode the runner handles — a clean deterministic exception
(``fail``), a hard worker death (``exit_code``, the OOM-kill /
``os._exit`` shape that breaks a process pool) and a wall-clock hang
(``hang_s``, for timeout policies).  Healthy cells compute a fixed
virtual-time profile, so fault-free values are bit-identical across
serial, parallel and cached reruns — exactly the property the
resilience tests and the ``study-resilience`` CI job assert.

It is a *built-in* registry app (``"study.chaos"``) so the CLI and CI
can run poisoned catalog studies without any runtime registration.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

__all__ = ["ChaosConfig", "ChaosError", "chaos_worker"]


class ChaosError(RuntimeError):
    """The deliberate failure raised by a flagged chaos cell."""


@dataclass
class ChaosConfig:
    """Knobs for one chaos cell (all misbehavior is off by default)."""

    nprocs: int
    #: raise :class:`ChaosError` deterministically on rank 0
    fail: bool = False
    #: if >= 0, rank 0 calls ``os._exit(exit_code)`` — kills the worker
    #: process without cleanup, the shape of an OOM kill
    exit_code: int = -1
    #: wall-clock seconds rank 0 sleeps before computing (timeout bait;
    #: virtual time is unaffected, so a generous-timeout run stays
    #: bit-identical to a no-hang run)
    hang_s: float = 0.0
    #: virtual compute seconds that shape the healthy result
    work_s: float = 0.001


def chaos_worker(comm, cfg: ChaosConfig):
    """Rank program: misbehave per config, else a fixed tiny workload."""
    if comm.rank == 0:
        if cfg.hang_s > 0.0:
            time.sleep(cfg.hang_s)
        if cfg.exit_code >= 0:
            if multiprocessing.parent_process() is not None:
                os._exit(cfg.exit_code)
            # in-process run: dying here would kill the caller's
            # interpreter (the CLI, the test runner) — degrade to a
            # catchable failure instead
            raise ChaosError(
                "chaos: exit_code is set but this is not a pool worker; "
                "refusing to kill the host process")
        if cfg.fail:
            raise ChaosError(
                f"chaos: flagged cell failed at nprocs={cfg.nprocs}")
    # a deterministic, slightly skewed compute profile: rank r works
    # proportionally to (r+1)/P, so max_elapsed is stable and nonzero
    yield from comm.compute(cfg.work_s * (comm.rank + 1) / max(1, cfg.nprocs))
    return {"elapsed": comm.time}
