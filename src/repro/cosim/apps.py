"""The ``cosim.hub`` registry workload: a canonical coupled pair.

Simulator A is a single *micro* stage whose every rank drives the
coupling — it pays a (deterministically jittered) per-step produce cost
and puts one element per step through its :class:`~repro.cosim.hub.APort`.
Simulator B is a single *macro* stage that drains its
:class:`~repro.cosim.hub.BPort` to exhaustion.  All the interesting
knobs live in the hub spec, which arrives from the study layer's
``machine.cosim`` sub-key (see :mod:`repro.study.registry`) so hub
size, buffer depth, transform cost and scale ratio are sweepable —
and cached — like any other machine axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from ..api.graph import StreamGraph
from .coupling import run_coupled

__all__ = [
    "CosimConfig",
    "build_graphs",
    "cosim_worker",
]


@dataclass(frozen=True)
class CosimConfig:
    """Config of the canonical coupled workload (hub knobs ride in the
    hub spec, not here — they are machine axes, not app axes)."""

    nprocs: int
    elements_per_producer: int = 24
    produce_seconds: float = 0.0
    #: deterministic per-(rank, element) produce jitter amplitude
    jitter: float = 0.25
    #: A-side process count; None = half of the non-hub ranks
    nprocs_a: Optional[int] = None

    def __post_init__(self):
        if self.nprocs < 3:
            raise ValueError(
                f"cosim workload needs >= 3 ranks (A + hub + B), "
                f"got {self.nprocs}")
        if self.elements_per_producer < 1:
            raise ValueError("elements_per_producer must be >= 1")
        if self.produce_seconds < 0:
            raise ValueError("produce_seconds must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


def _jitter01(rank: int, i: int) -> float:
    """Deterministic hash-noise in [0, 1) (no RNG state to carry)."""
    return ((rank * 2654435761 + i * 97003 + 12289) % 4096) / 4096.0


def build_graphs(cfg: CosimConfig) -> Tuple[StreamGraph, StreamGraph]:
    """The micro/macro pair; B's port stage uses the default drain."""

    def micro_body(ctx, port) -> Generator[Any, Any, Dict[str, Any]]:
        comm = ctx.comm
        produce = cfg.produce_seconds
        amp = cfg.jitter
        for i in range(cfg.elements_per_producer):
            if produce:
                yield from ctx.compute(
                    produce * (1.0 + amp * _jitter01(comm.rank, i)),
                    label="produce")
            yield from port.put(("m", comm.rank, i))
        return {"put": cfg.elements_per_producer}

    graph_a = StreamGraph(name="cosim-micro")
    graph_a.stage("micro", fraction=1.0, body=micro_body)
    graph_b = StreamGraph(name="cosim-macro")
    graph_b.stage("macro", fraction=1.0)
    return graph_a, graph_b


#: graphs are pure functions of the config; building once per process
#: keeps the coupled compile memo (same graph objects on every rank)
#: effective
@functools.lru_cache(maxsize=64)
def _graphs(cfg: CosimConfig) -> Tuple[StreamGraph, StreamGraph]:
    return build_graphs(cfg)


def cosim_worker(comm, cfg: CosimConfig, hub=None
                 ) -> Generator[Any, Any, Dict[str, Any]]:
    """Registry worker: run the coupled pair, report a flat per-rank
    record (``role``/``elapsed`` + the rank's port or hub counters)."""
    graph_a, graph_b = _graphs(cfg)
    rec = yield from run_coupled(comm, graph_a, graph_b, hub,
                                 port_a="micro", port_b="macro",
                                 nprocs_a=cfg.nprocs_a)
    if rec.get("role") == "hub":
        # return the hub's record object itself, not a copy: a standby
        # adoption after this rank finished refreshes it in place
        rec["elapsed"] = comm.time
        return rec
    out: Dict[str, Any] = {"elapsed": comm.time}
    out["role"] = "micro" if rec["role"] == "a" else "macro"
    port = rec.get("port")
    if port is not None:
        out.update(port)
    return out
