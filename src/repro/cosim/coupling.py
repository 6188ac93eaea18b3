"""Wiring two StreamGraphs and a hub into one SPMD world.

:func:`run_coupled` is the generator main of a coupled simulation.  The
world is partitioned ``[A ranks | hub ranks | B ranks]``; each side's
:class:`~repro.api.graph.StreamGraph` is compiled for its sub-world and
executed unchanged on a sub-communicator, except that the declared
*port stage* gets its body wrapped: the wrapper looks up this rank's
:class:`~repro.cosim.hub.APort` / :class:`~repro.cosim.hub.BPort` in a
process-local registry and passes it to the user body as a second
argument (``body(ctx, port)``).  Hub ranks run
:func:`~repro.cosim.hub.hub_main` instead of a graph.

All communicator construction is communication-free: sub-groups come
from ``group_from_ranks``, the two intercommunicators from
``create_intercomm`` (A's port stage ↔ hub, hub ↔ B's port stage), and
the hub's mirror window is allocated over the hub intracommunicator.
Every rank derives the same layout from ``(world size, hub spec,
nprocs_a)``, so no agreement round is paid.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..api.graph import StreamGraph
from ..simmpi.rma import Win
from .hub import APort, BPort, hub_main, mirror_slot_bytes
from .spec import CosimError, HubSpec, resolve_hub

__all__ = [
    "CouplingLayout",
    "plan_layout",
    "run_coupled",
]

#: (id(World), global rank) -> port object, installed around execute()
_ACTIVE_PORTS: Dict[Tuple[int, int], Any] = {}

#: wrapped-and-compiled graphs, keyed by graph identity + layout; every
#: rank of a run passes the same StreamGraph objects, so this turns
#: O(P) compiles per run into O(1).  The cache holds each key's graph,
#: so a graph's identity cannot be reused while its entry lives.
@functools.lru_cache(maxsize=64)
def _compiled(graph: StreamGraph, port: str,
              default_body: Optional[Callable], nprocs: int):
    return _with_port_body(graph, port, default_body).compile(nprocs)


class CouplingLayout:
    """The deterministic rank partition of a coupled world."""

    def __init__(self, total: int, hub: HubSpec, graph_a: StreamGraph,
                 graph_b: StreamGraph, port_a: str, port_b: str,
                 nprocs_a: Optional[int] = None):
        hub.validate()
        stages_a = len(graph_a.stages)
        stages_b = len(graph_b.stages)
        if stages_a == 0 or stages_b == 0:
            raise CosimError("both coupled graphs need at least one stage")
        min_procs = stages_a + stages_b + hub.size
        if total < min_procs:
            raise CosimError(
                f"{total} processes cannot host a coupling of "
                f"{stages_a}-stage graph A, {stages_b}-stage graph B and "
                f"a {hub.size}-rank hub (need >= {min_procs})")
        if nprocs_a is None:
            nprocs_a = (total - hub.size) // 2
        if not stages_a <= nprocs_a <= total - hub.size - stages_b:
            raise CosimError(
                f"nprocs_a={nprocs_a} does not fit: graph A needs "
                f"[{stages_a}, {total - hub.size - stages_b}] of the "
                f"{total} processes ({hub.size} are the hub)")
        for graph, port, label in ((graph_a, port_a, "A"),
                                   (graph_b, port_b, "B")):
            names = [s.name for s in graph.stages]
            if port not in names:
                raise CosimError(
                    f"port stage {port!r} not in graph {label} "
                    f"({graph.name!r}); declared stages: {names}")
        if graph_a._stages[port_a].body is None:
            raise CosimError(
                f"graph A's port stage {port_a!r} needs a body "
                "(it drives the coupling by putting elements)")
        self.total = total
        self.hub = hub
        self.nprocs_a = nprocs_a
        self.nprocs_b = total - hub.size - nprocs_a
        self.a_ranks = tuple(range(nprocs_a))
        self.hub_ranks = tuple(range(nprocs_a, nprocs_a + hub.size))
        self.b_ranks = tuple(range(nprocs_a + hub.size, total))
        self.port_a = port_a
        self.port_b = port_b

    def port_globals(self, plan, port: str, offset: int) -> Tuple[int, ...]:
        spec = plan.groups[port]
        return tuple(range(offset + spec.first_rank,
                           offset + spec.first_rank + spec.size))


def plan_layout(total: int, hub, graph_a: StreamGraph,
                graph_b: StreamGraph, port_a: str, port_b: str,
                nprocs_a: Optional[int] = None) -> CouplingLayout:
    """Validate and resolve the rank partition without running."""
    return CouplingLayout(total, resolve_hub(hub), graph_a, graph_b,
                          port_a, port_b, nprocs_a)


def _with_port_body(graph: StreamGraph, port: str,
                    default_body: Optional[Callable]) -> StreamGraph:
    """Copy ``graph`` with the port stage's body wrapped to receive the
    registered port object as a second argument."""
    wrapped = StreamGraph(name=f"{graph.name}+port")
    for s in graph.stages:
        body = s.body
        if s.name == port:
            body = _port_wrapper(s.body if s.body is not None
                                 else default_body)
        wrapped.stage(s.name, fraction=s.fraction, size=s.size, body=body)
    for f in graph.flows:
        wrapped.flow(f.name, f.src, f.dst, operator=f.operator,
                     router=f.router, window=f.window,
                     element_overhead=f.element_overhead, eager=f.eager,
                     checkpoint=f.checkpoint)
    return wrapped


def _port_wrapper(user_body: Callable) -> Callable:
    def body(ctx) -> Generator[Any, Any, Any]:
        comm = ctx.world  # the coupled sub-communicator execute() got
        port = _ACTIVE_PORTS[(id(comm.world), comm._global)]
        result = yield from user_body(ctx, port)
        if isinstance(port, APort) and not port.closed:
            yield from port.close()
        return result

    return body


def _default_b_body(ctx, port: BPort) -> Generator[Any, Any, Any]:
    """Drain the hub stream to exhaustion and report the counts."""
    while True:
        element = yield from port.get()
        if element is None:
            break
    return port.summary()


def run_coupled(comm, graph_a: StreamGraph, graph_b: StreamGraph,
                hub=None, *, port_a: str, port_b: str,
                nprocs_a: Optional[int] = None
                ) -> Generator[Any, Any, Dict[str, Any]]:
    """SPMD main of a coupled simulation; run it on every world rank.

    Returns this rank's record: ``{"role": "a"|"b", "record":
    StageRecord, "port": {...}}`` for simulator ranks,
    :func:`~repro.cosim.hub.hub_main`'s stats dict for hub ranks.
    """
    layout = plan_layout(comm.size, hub, graph_a, graph_b,
                         port_a, port_b, nprocs_a)
    spec = layout.hub
    compiled_a = _compiled(graph_a, port_a, None, layout.nprocs_a)
    compiled_b = _compiled(graph_b, port_b, _default_b_body,
                           layout.nprocs_b)
    a_port_globals = layout.port_globals(compiled_a.plan, port_a, 0)
    b_port_globals = layout.port_globals(compiled_b.plan, port_b,
                                         layout.nprocs_a + spec.size)
    n_producers = len(a_port_globals)
    n_consumers = len(b_port_globals)
    slot = mirror_slot_bytes(spec, n_producers)
    rank = comm.rank

    if rank in layout.hub_ranks:
        hubcomm = comm.group_from_ranks(layout.hub_ranks, name="cosim-hub")
        inter_a = comm.create_intercomm(layout.hub_ranks, a_port_globals,
                                        tag=0, name="cosim-hub/a")
        inter_b = comm.create_intercomm(layout.hub_ranks, b_port_globals,
                                        tag=1, name="cosim-hub/b")
        win = yield from Win.allocate(hubcomm, spec.size * slot)
        result = yield from hub_main(hubcomm, inter_a, inter_b, win, spec,
                                     n_producers, n_consumers, slot)
        return result

    if rank in layout.a_ranks:
        side, ranks, compiled = "a", layout.a_ranks, compiled_a
        port_globals = a_port_globals
    else:
        side, ranks, compiled = "b", layout.b_ranks, compiled_b
        port_globals = b_port_globals
    sub = comm.group_from_ranks(ranks, name=f"cosim-{side}")
    port = None
    if comm.rank in port_globals:
        inter = comm.create_intercomm(port_globals, layout.hub_ranks,
                                      tag=0 if side == "a" else 1,
                                      name=f"cosim-{side}/hub")
        port = (APort if side == "a" else BPort)(inter, spec)
        _ACTIVE_PORTS[(id(comm.world), comm._global)] = port
    try:
        record = yield from compiled.execute(sub)
    finally:
        if port is not None:
            _ACTIVE_PORTS.pop((id(comm.world), comm._global), None)
    out: Dict[str, Any] = {"role": side, "record": record}
    if port is not None:
        out["port"] = port.summary()
    return out
