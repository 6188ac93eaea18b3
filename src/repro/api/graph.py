"""The declarative front-end: declare stages and flows, compile to a plan.

A :class:`StreamGraph` is the builder form of the paper's decoupling
strategy.  Users declare *stages* (named groups of processes sized by
fraction or absolute count, each with a generator body) and *flows*
(directional streams between stages, optionally carrying an operator
and a router), then hand the graph to :class:`~repro.api.simulation.
Simulation` — or embed it in a running rank program with
``yield from graph.compile(P).execute(world)``.

Compilation lowers the declaration onto a validated
:class:`~repro.core.groups.DecouplingPlan`, one group per stage.
:meth:`CompiledGraph.execute` then builds this rank's stage: the stage
communicator, one channel per flow the stage touches (each over its
flow's two stages alone) and one attached stream per such flow — in
deterministic declaration order, so every rank agrees on tags and
contexts without communication.  After the user body returns it
terminates every un-terminated producer stream and frees the stage's
channels, making the ``terminate``/``free`` protocol impossible to
forget.

    graph = (StreamGraph()
             .stage("compute", fraction=0.9375, body=compute_body)
             .stage("analyze", fraction=0.0625)
             .flow("samples", src="compute", dst="analyze",
                   operator=RunningStats))
    report = Simulation(64, machine="beskow").run(graph)

A stage may omit its body when it only consumes flows that declare
operators: ``execute`` supplies a default body that operates each
incoming flow in declaration order and reports the operator results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from ..core.groups import DecouplingPlan
from ..mpistream.channel import StreamChannel, create_channel
from ..mpistream.stream import (
    DEFAULT_ELEMENT_OVERHEAD,
    DEFAULT_WINDOW,
    attach,
)
from ..simmpi.comm import Comm
from .errors import GraphError
from .handles import (
    ConsumerHandle,
    ProducerHandle,
    StageContext,
    StageRecord,
)

Body = Callable[[StageContext], Generator]


@dataclass(frozen=True)
class StageDef:
    """One declared stage: a named group with an optional body."""

    name: str
    fraction: Optional[float]
    size: Optional[int]
    body: Optional[Body]
    #: nominal seconds if the whole machine ran this stage — the
    #: T_W0/T'_W1 input of :func:`repro.core.model.auto_size_plan`;
    #: optional
    work: Optional[float] = None

    def effective_fraction(self, total_procs: int) -> float:
        if self.fraction is not None:
            return self.fraction
        return self.size / total_procs


@dataclass(frozen=True)
class FlowDef:
    """One declared flow: a directional stream between two stages."""

    name: str
    src: str
    dst: str
    operator: Optional[Any] = None
    router: Optional[Callable] = None
    window: int = DEFAULT_WINDOW
    element_overhead: float = DEFAULT_ELEMENT_OVERHEAD
    eager: bool = False
    #: optional repro.faults.Checkpoint enabling stream-level recovery
    checkpoint: Optional[Any] = None

    def make_operator(self) -> Optional[Any]:
        """A per-rank operator instance.

        A class passed as ``operator`` is instantiated per consumer rank
        so stateful operators never share state across ranks; a plain
        callable is used as-is."""
        if isinstance(self.operator, type):
            return self.operator()
        return self.operator


class StreamGraph:
    """Fluent builder for a decoupled streaming application."""

    def __init__(self, name: str = "stream-graph"):
        self.name = name
        self._stages: Dict[str, StageDef] = {}
        self._order: List[str] = []
        self._flows: List[FlowDef] = []

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def stage(self, name: str, *, fraction: Optional[float] = None,
              size: Optional[int] = None,
              body: Optional[Body] = None,
              work: Optional[float] = None) -> "StreamGraph":
        """Declare a stage sized by ``fraction`` of P *or* absolute
        ``size``; ``body(ctx)`` is a generator function (omit it for a
        pure consumer stage whose flows declare operators).  ``work`` is
        the stage's nominal whole-machine runtime in seconds — a hint
        :func:`~repro.core.model.auto_size_plan` uses to size the
        groups at Eq. 2's balance point."""
        if name in self._stages:
            raise GraphError(f"duplicate stage {name!r}")
        if work is not None and work <= 0:
            raise GraphError(
                f"stage {name!r}: work must be positive, got {work}")
        if (fraction is None) == (size is None):
            raise GraphError(
                f"stage {name!r}: give exactly one of fraction / size")
        if fraction is not None and not (0.0 < fraction <= 1.0):
            raise GraphError(
                f"stage {name!r}: fraction must be in (0, 1], got {fraction}")
        if size is not None and size < 1:
            raise GraphError(f"stage {name!r}: size must be >= 1, got {size}")
        if body is not None and not callable(body):
            raise GraphError(f"stage {name!r}: body must be callable")
        self._stages[name] = StageDef(name, fraction, size, body, work)
        self._order.append(name)
        return self

    def flow(self, name: str, src: str, dst: str, *,
             operator: Optional[Any] = None,
             router: Optional[Callable] = None,
             window: int = DEFAULT_WINDOW,
             element_overhead: float = DEFAULT_ELEMENT_OVERHEAD,
             eager: bool = False,
             checkpoint: Optional[Any] = None) -> "StreamGraph":
        """Declare a flow from stage ``src`` to stage ``dst``.

        ``operator`` is applied per element on the consumer — pass a
        callable (shared) or a class (a fresh stateful instance per
        consumer rank).  ``router``, ``window``, ``element_overhead``,
        ``eager`` and ``checkpoint`` (a
        :class:`~repro.faults.plan.Checkpoint` enabling stream-level
        recovery) forward to :func:`~repro.mpistream.stream.attach`.
        """
        if any(f.name == name for f in self._flows):
            raise GraphError(f"duplicate flow {name!r}")
        for stage_name in (src, dst):
            if stage_name not in self._stages:
                raise GraphError(
                    f"unknown stage {stage_name!r} in flow {name!r}; "
                    f"declared stages: {self._order}")
        if src == dst:
            raise GraphError(
                f"flow {name!r} must link two distinct stages")
        if window < 1:
            raise GraphError(f"flow {name!r}: window must be >= 1")
        if element_overhead < 0:
            raise GraphError(
                f"flow {name!r}: element_overhead must be >= 0")
        if checkpoint is not None:
            if router is not None:
                raise GraphError(
                    f"flow {name!r}: checkpoint recovery needs static "
                    "blocked routing (drop the router)")
            try:
                checkpoint.validate()
            except (AttributeError, ValueError) as exc:
                raise GraphError(
                    f"flow {name!r}: bad checkpoint policy: {exc}") from exc
        self._flows.append(FlowDef(
            name, src, dst, operator=operator, router=router,
            window=window, element_overhead=element_overhead, eager=eager,
            checkpoint=checkpoint))
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stages(self) -> List[StageDef]:
        return [self._stages[n] for n in self._order]

    @property
    def flows(self) -> List[FlowDef]:
        return list(self._flows)

    def flows_in(self, stage: str) -> List[FlowDef]:
        return [f for f in self._flows if f.dst == stage]

    def flows_out(self, stage: str) -> List[FlowDef]:
        return [f for f in self._flows if f.src == stage]

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self, total_procs: int) -> "CompiledGraph":
        """Validate the declaration and lower it to a
        :class:`~repro.core.groups.DecouplingPlan` sized for
        ``total_procs`` processes."""
        if not self._order:
            raise GraphError("graph has no stages")
        if total_procs < len(self._order):
            raise GraphError(
                f"{total_procs} processes cannot host "
                f"{len(self._order)} stages")
        coverage = sum(
            s.effective_fraction(total_procs) for s in self.stages)
        if coverage > 1.0 + 1e-9:
            raise GraphError(
                f"stage fractions overflow the machine: sum is "
                f"{coverage:.4f} > 1 over {total_procs} processes")
        # Stages must partition the machine: undercoverage would be
        # silently absorbed by the largest group (the plan's drift
        # rule), inflating it far beyond its declaration.  Allow only
        # per-stage rounding slack.
        slack = 0.5 * len(self._order) / total_procs + 1e-9
        if coverage < 1.0 - slack:
            raise GraphError(
                f"stage fractions undercover the machine: sum is "
                f"{coverage:.4f} < 1 over {total_procs} processes; "
                "declare stages that partition all processes")
        for s in self.stages:
            if s.body is not None:
                continue
            incoming = self.flows_in(s.name)
            outgoing = self.flows_out(s.name)
            if outgoing:
                raise GraphError(
                    f"missing body: stage {s.name!r} produces flow(s) "
                    f"{[f.name for f in outgoing]} and cannot be defaulted")
            if not incoming:
                raise GraphError(
                    f"missing body: stage {s.name!r} touches no flows")
            for f in incoming:
                if f.operator is None:
                    raise GraphError(
                        f"missing body: stage {s.name!r} consumes flow "
                        f"{f.name!r} which declares no operator")

        plan = DecouplingPlan(total_procs)
        for s in self.stages:
            plan.add_group(s.name, fraction=s.fraction, size=s.size)
        for f in self._flows:
            plan.add_flow(f.name, f.src, f.dst)
        plan.validate()
        # The plan resolves rounding drift by resizing the largest
        # group — fine for fraction-declared stages, but an explicit
        # size the user wrote down must never be silently overridden.
        for s in self.stages:
            resolved = plan.groups[s.name].size
            if s.size is not None and resolved != s.size:
                raise GraphError(
                    f"stage {s.name!r} declared size {s.size} but covering "
                    f"{total_procs} processes needs {resolved}; declare "
                    "sizes that sum to the machine, or use fractions")
        return CompiledGraph(self, plan)


class CompiledGraph:
    """A validated graph bound to a concrete process count.

    ``execute(world)`` is the SPMD generator main: it builds this rank's
    stage (communicator, channels, streams), runs the stage body between
    that prologue and an automatic epilogue (terminate + free), and
    returns this rank's :class:`~repro.api.handles.StageRecord`.
    """

    def __init__(self, graph: StreamGraph, plan: DecouplingPlan):
        self.graph = graph
        self.plan = plan

    @property
    def total_procs(self) -> int:
        return self.plan.total_procs

    def execute(self, world: Comm) -> Generator[Any, Any, StageRecord]:
        """This rank's SPMD main, as a generator."""
        plan = self.plan
        if world.size != plan.total_procs:
            raise GraphError(
                f"plan sized for {plan.total_procs} processes, communicator "
                f"has {world.size}")
        name = plan.group_of(world.rank)
        stage = self.graph._stages[name]
        # Stage membership is a pure function of the plan (contiguous,
        # deterministic rank blocks), so the stage communicator forms
        # without an agreement round: the MPI_Comm_create_group path
        # rather than MPI_Comm_split.
        comm = world.group_from_ranks(plan.group_ranks(name),
                                      name=f"{world.name}/{name}")

        # each touching flow's channel is collective over the flow's own
        # members (its two stages, formed the same communication-free
        # way), in declaration order; other ranks skip it
        flows = [f for f in self.graph.flows if name in (f.src, f.dst)]
        channels: Dict[str, StreamChannel] = {}
        for flow in flows:
            flow_comm = world.group_from_ranks(
                plan.flow_ranks(flow.name), name=f"{world.name}/{flow.name}")
            channels[flow.name] = yield from create_channel(
                flow_comm, is_producer=(name == flow.src),
                is_consumer=(name == flow.dst))

        # one stream per flow, in declaration order (the tag-agreement
        # contract)
        handles: Dict[str, Any] = {}
        for flow in flows:
            producing = name == flow.src
            stream = yield from attach(
                channels[flow.name],
                None if producing else flow.make_operator(),
                element_overhead=flow.element_overhead,
                window=flow.window, router=flow.router,
                eager=flow.eager, checkpoint=flow.checkpoint)
            handles[flow.name] = (
                ProducerHandle(flow.name, stream) if producing
                else ConsumerHandle(flow.name, stream, stream.operator))

        ctx = StageContext(name, plan, world, comm, channels, handles)
        if stage.body is not None:
            result = yield from stage.body(ctx)
        else:
            result = yield from self._default_consumer_body(ctx)

        # epilogue: the terminate/free protocol, automatically
        for h in handles.values():
            if isinstance(h, ProducerHandle) and not h.terminated:
                yield from h.terminate()
        for ch in channels.values():
            if not ch.freed:
                yield from ch.free()

        return StageRecord(
            stage=name, result=result,
            profiles={n: h.profile for n, h in handles.items()})

    def _default_consumer_body(self, ctx: StageContext
                               ) -> Generator[Any, Any, Any]:
        """Operate every incoming flow in declaration order; report each
        operator's result (single flow: the bare result)."""
        results: Dict[str, Any] = {}
        for flow in self.graph.flows_in(ctx.stage):
            handle = ctx.consumer(flow.name)
            yield from handle.operate()
            results[flow.name] = handle.result()
        if len(results) == 1:
            return next(iter(results.values()))
        return results
