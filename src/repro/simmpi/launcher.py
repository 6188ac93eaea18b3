"""SPMD launcher: run a rank program over P simulated processes.

This is the simulation's ``mpiexec``.  The rank program is a generator
function ``fn(comm, *args) -> value``; :func:`run` instantiates it once
per rank, drives all instances through one shared engine, and returns a
:class:`SimResult` with the elapsed virtual time, per-rank return
values and finish times, traffic statistics and (optionally) the trace.

    def hello(comm):
        token = yield from comm.bcast(comm.rank, root=0)
        return token

    result = run(hello, nprocs=64, machine=beskow())
    assert result.values == [0] * 64
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .comm import Comm, World
from .config import MachineConfig, quiet_testbed
from .engine import Engine
from ..trace.recorder import Tracer

#: context ids of COMM_WORLD (p2p, collective)
WORLD_CONTEXT = 0
WORLD_CONTEXT_COLL = 1


@dataclass
class SimResult:
    """Outcome of one simulated SPMD run."""

    nprocs: int
    elapsed: float                      # virtual time when the last rank finished
    values: List[Any]                   # per-rank return values
    finish_times: List[float]           # per-rank completion times
    messages: int                       # total point-to-point messages
    bytes: int                          # total bytes moved
    events: int                         # engine events fired (sim cost proxy)
    tracer: Optional[Tracer] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """Spread of rank finish times relative to the makespan."""
        if not self.finish_times or self.elapsed == 0:
            return 0.0
        return (max(self.finish_times) - min(self.finish_times)) / self.elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SimResult(nprocs={self.nprocs}, elapsed={self.elapsed:.4f}s, "
                f"messages={self.messages}, events={self.events})")


def run(fn: Callable, nprocs: int,
        machine: Optional[MachineConfig] = None,
        args: tuple = (),
        rank_args: Optional[Callable[[int], tuple]] = None,
        trace: bool = False,
        max_events: Optional[int] = None,
        faults=None,
        engine_factory: Optional[Callable[[], Engine]] = None,
        mailbox_factory: Optional[Callable] = None,
        network_factory: Optional[Callable] = None) -> SimResult:
    """Simulate ``fn`` on ``nprocs`` ranks of ``machine``.

    Parameters
    ----------
    fn:
        Generator function ``fn(comm, *args)``.  Its return value
        becomes ``result.values[rank]``.
    machine:
        Platform preset (default: the quiet testbed — deterministic,
        noise-free; pass :func:`repro.simmpi.config.beskow` for the
        paper's platform).  ``machine.with_(topology=...,
        placement=...)`` swaps its fabric or rank→node policy.
    args / rank_args:
        Extra positional arguments: ``args`` is shared verbatim;
        ``rank_args(rank)`` (if given) is called per rank and takes
        precedence.
    trace:
        Attach a :class:`~repro.trace.recorder.Tracer` and return it in
        the result.
    max_events:
        Safety budget on engine events (livelock guard for tests).
    faults:
        Deterministic fault injection: a :class:`~repro.faults.plan.
        FaultPlan` (or its JSON dict; None = fault-free, the default
        with zero overhead on the hot paths).  Crashed ranks report
        ``None`` in ``values`` and their crash time in
        ``finish_times``; ``extras["faults"]`` summarizes what happened.
        Incompatible with the oracle's ``engine_factory`` injection.
    engine_factory / mailbox_factory / network_factory:
        Implementation injection, used by ``bench perf`` to run the
        :mod:`repro.simmpi.oracle` slow path (pass
        ``**repro.simmpi.oracle.SLOW_PATH``) and assert bit-identical
        virtual-time results against the default fast path.
    """
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    machine = machine or quiet_testbed()

    plan = None
    if faults is not None:
        # lazy import: repro.faults sits above simmpi in the layering
        from ..faults.injector import FaultController
        from ..faults.plan import FaultError, resolve_faults
        plan = resolve_faults(faults)
    if plan is not None:
        plan = plan.resolve_ranks(nprocs)
        if engine_factory is not None or mailbox_factory is not None:
            raise FaultError(
                "fault injection needs the fast-path engine/mailbox; "
                "it cannot run under oracle slow-path injection")
        if plan.link_events:
            if network_factory is not None:
                raise FaultError(
                    "LinkDegrade events replace the network model; drop "
                    "the custom network_factory")
            if machine.topology.kind != "flat":
                raise FaultError(
                    "LinkDegrade events are modeled on the flat fabric "
                    f"only, not {machine.topology.kind!r}")

    engine = (engine_factory or Engine)()
    engine.max_events = max_events
    tracer = Tracer() if trace else None
    world = World(engine, machine, nprocs, tracer=tracer,
                  mailbox_factory=mailbox_factory,
                  network_factory=network_factory)
    ctl = None
    if plan is not None:
        if plan.link_events:
            world.network.degrade(plan.link_events)
        ctl = FaultController(engine, world, plan)
        world._fault_ctl = ctl

    handles = []
    world_ranks = tuple(range(nprocs))
    for rank in range(nprocs):
        comm = Comm(world, world_ranks, rank,
                    WORLD_CONTEXT, WORLD_CONTEXT_COLL, name="WORLD",
                    my_local=rank)
        call_args = rank_args(rank) if rank_args is not None else args
        gen = fn(comm, *call_args)
        handles.append(engine.spawn(gen, name=f"rank{rank}"))
    if ctl is not None:
        ctl.install(handles)

    elapsed = engine.run()

    extras = {"world": world}
    if ctl is not None:
        extras["faults"] = ctl.summary()
    return SimResult(
        nprocs=nprocs,
        elapsed=elapsed,
        values=[h.value for h in handles],
        finish_times=[h.done_flag.time for h in handles],
        messages=world.network.messages_sent,
        bytes=world.network.bytes_sent,
        events=engine.events_fired,
        tracer=tracer,
        extras=extras,
    )
