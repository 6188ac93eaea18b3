"""Recovery-enabled case-study workloads (the ``fig_recovery`` apps).

Two registry apps reproduce the *upward funnel* of the paper's CG and
iPIC3D case studies with stream-level recovery enabled: a compute group
streams elements (halo faces / particle-exit batches) into a decoupled
helper group that processes them on the fly, checkpointing its state
every ``checkpoint_interval`` elements.  Killing a helper rank
mid-stream (``machine.faults`` in a study, ``faults=`` anywhere else)
exercises the whole recovery path: failure detection, successor
adoption, checkpoint restore and un-acked replay.  Helpers charge their
per-element handling through ``ctx.compute``, so noise, ``Slowdown``
windows and tracing reach it like any other compute.

The cost constants mirror the originating apps
(:class:`~repro.apps.cg.config.CGConfig` /
:class:`~repro.apps.ipic3d.config.IPICConfig`): CG streams
``block_points^2`` double faces and pays the halo group's per-byte
aggregation cost; pcomm streams 2048-particle exit batches and pays the
exchange group's vectorized per-particle handling cost.  The producer
side carries deterministic per-element jitter so the helper group has
imbalance to absorb — the same role noise plays in the originals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Generator

from ..api import StreamGraph
from ..simmpi.comm import Comm
from ..simmpi.datatypes import SizedPayload
from .plan import Checkpoint

__all__ = [
    "CGHaloRecoveryConfig",
    "PcommRecoveryConfig",
    "cg_halo_recovery",
    "pcomm_recovery",
]


@dataclass(frozen=True)
class _RecoveryConfig:
    """Shared shape of the two recovery workloads."""

    nprocs: int
    alpha: float = 0.125
    elements_per_producer: int = 120
    element_bytes: int = 0            # overridden by the subclasses
    produce_seconds: float = 0.0
    handle_seconds: float = 0.0
    #: deterministic per-(rank, element) produce jitter amplitude
    jitter: float = 0.3
    #: elements between consumer state snapshots (0 = no checkpointing)
    checkpoint_interval: int = 32
    checkpoint_bytes: int = 1 << 20

    def __post_init__(self):
        if self.nprocs < 2:
            raise ValueError("recovery workloads need at least 2 ranks")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.elements_per_producer < 1:
            raise ValueError("elements_per_producer must be >= 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0 (0 = off)")

    @property
    def n_helper(self) -> int:
        return max(1, round(self.alpha * self.nprocs))

    @property
    def n_compute(self) -> int:
        return self.nprocs - self.n_helper

    def checkpoint(self):
        if self.checkpoint_interval == 0:
            return None
        return Checkpoint(interval=self.checkpoint_interval,
                          state_nbytes=self.checkpoint_bytes)


@dataclass(frozen=True)
class CGHaloRecoveryConfig(_RecoveryConfig):
    """CG-shaped funnel: compute ranks stream 120^2 double faces; the
    halo group aggregates at CGConfig's per-byte memcpy cost."""

    element_bytes: int = 120 * 120 * 8                   # one face
    #: inner-Laplacian slice between faces, paced so the helper group
    #: runs near saturation (its service rate is the recovery surface)
    produce_seconds: float = 2.0e-4
    #: element_bytes * CGConfig.aggregate_seconds_per_byte
    handle_seconds: float = 120 * 120 * 8 * 2.0e-10


@dataclass(frozen=True)
class PcommRecoveryConfig(_RecoveryConfig):
    """pcomm-shaped funnel: movers stream 2048-particle exit batches;
    the exchange group pays IPICConfig's vectorized handling cost."""

    elements_per_producer: int = 200
    element_bytes: int = 2048 * 64 + 24                  # one exit batch
    #: mover slice per batch (2048 particles at 5.3e-7 s would be the
    #: full mover; batches interleave with it, so a fraction paces flow)
    produce_seconds: float = 1.5e-4
    #: 2048 * IPICConfig.decoupled_handling_seconds_per_particle / 8
    #: (the exchange rank interleaves several served movers)
    handle_seconds: float = 2048 * 1.0e-7 / 8


def _jitter01(rank: int, i: int) -> float:
    """Deterministic hash-noise in [0, 1) (no RNG state to carry)."""
    return ((rank * 2654435761 + i * 97003 + 12289) % 4096) / 4096.0


def _build_graph(cfg: _RecoveryConfig, name: str) -> StreamGraph:
    def produce_body(ctx):
        comm = ctx.comm
        produce = cfg.produce_seconds
        amp = cfg.jitter
        with ctx.producer("elements") as out:
            for i in range(cfg.elements_per_producer):
                yield from ctx.compute(
                    produce * (1.0 + amp * _jitter01(comm.rank, i)),
                    label="produce")
                yield from out.send(SizedPayload(i, cfg.element_bytes))

    def helper_body(ctx):
        def handle(element):
            return ctx.compute(cfg.handle_seconds, label="handle")

        yield from ctx.consumer("elements").operate(handle)

    return (
        StreamGraph(name)
        .stage("compute", size=cfg.n_compute, body=produce_body)
        .stage("helper", size=cfg.n_helper, body=helper_body)
        .flow("elements", src="compute", dst="helper",
              checkpoint=cfg.checkpoint())
    )


#: compiled graphs are pure functions of the config; compiling once per
#: run (not once per rank) keeps setup O(P)
@functools.lru_cache(maxsize=64)
def _compiled(cfg: _RecoveryConfig, name: str):
    return _build_graph(cfg, name).compile(cfg.nprocs)


def _recovery_worker(comm: Comm, cfg: _RecoveryConfig, name: str
                     ) -> Generator[Any, Any, Dict[str, Any]]:
    record = yield from _compiled(cfg, name).execute(comm)
    profile = record.profiles.get("elements")
    out: Dict[str, Any] = {"role": record.stage, "elapsed": comm.time}
    if profile is not None:
        out["elements_sent"] = profile.elements_sent
        out["elements_received"] = profile.elements_received
        out["checkpoints"] = profile.checkpoints
        out["acked_elements"] = profile.acked_elements
        out["replayed_elements"] = profile.replayed_elements
        out["recoveries"] = profile.recoveries
        out["adopted_producers"] = profile.adopted_producers
    return out


def cg_halo_recovery(comm: Comm, cfg: CGHaloRecoveryConfig
                     ) -> Generator[Any, Any, Dict[str, Any]]:
    """CG halo funnel with checkpointed, crash-recoverable streaming."""
    result = yield from _recovery_worker(comm, cfg, "cg-halo-recovery")
    return result


def pcomm_recovery(comm: Comm, cfg: PcommRecoveryConfig
                   ) -> Generator[Any, Any, Dict[str, Any]]:
    """iPIC3D particle-exit funnel with checkpointed recovery."""
    result = yield from _recovery_worker(comm, cfg, "pcomm-recovery")
    return result
