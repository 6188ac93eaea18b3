"""``repro.faults`` — deterministic fault injection and recovery.

The paper's decoupling argument is ultimately a resilience argument:
dedicated helper groups isolate I/O and communication stages so the
compute group can keep marching.  This subsystem makes failure a
first-class, *declarative* experiment axis:

* :class:`FaultPlan` — JSON-round-trippable typed events
  (:class:`RankCrash`, :class:`Slowdown`, :class:`LinkDegrade`), wired
  through ``launcher.run(faults=)``, ``api.Simulation(faults=)`` and
  the ``faults`` machine-spec sub-key of :mod:`repro.study` (cache keys
  incorporate the fault spec automatically).
* an engine-level poison/cancel contract (DESIGN.md §12): a crashed
  rank's pending sends, matches and collectives resolve to
  :class:`~repro.simmpi.errors.ProcessFailedError` /
  :class:`~repro.simmpi.errors.RevokedError` instead of deadlocking
  the event heap — ULFM semantics, catchable inside the simulated rank.
* :class:`Checkpoint` — stream-level recovery: consumers snapshot
  operator state through the filesystem model and ack producers, which
  replay un-acked elements to a deterministic successor when a helper
  group loses a member.

Faulted runs stay pure functions of (programs, seeds, fault plan);
fault-free runs are bit-identical to a build without this package.
"""

from .apps import (
    CGHaloRecoveryConfig,
    PcommRecoveryConfig,
    cg_halo_recovery,
    pcomm_recovery,
)
from .injector import FaultController
from .plan import (
    Checkpoint,
    FaultError,
    FaultPlan,
    LinkDegrade,
    RankCrash,
    Slowdown,
    resolve_faults,
)

__all__ = [
    "CGHaloRecoveryConfig",
    "Checkpoint",
    "FaultController",
    "FaultError",
    "FaultPlan",
    "LinkDegrade",
    "PcommRecoveryConfig",
    "RankCrash",
    "Slowdown",
    "cg_halo_recovery",
    "pcomm_recovery",
    "resolve_faults",
]
