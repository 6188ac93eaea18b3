"""The decoupled-application runtime: wire a plan into running groups.

Given a validated :class:`~repro.core.groups.DecouplingPlan` and one
body function per group, :func:`run_decoupled` is the SPMD main that:

1. forms the plan's group communicators (communication-free: plan
   membership is deterministic on every rank),
2. creates one stream channel per declared flow, collective over that
   flow's members alone (producers = src group, consumers = dst
   group); ranks outside a flow take no part in it,
3. invokes this rank's group body with a :class:`GroupContext`.

Bodies are generator functions ``body(ctx)``; their return value is the
rank's result.  This is the generic scaffolding Fig. 3's comparison and
the examples use; the case-study applications (MapReduce, CG, iPIC3D)
use the same pieces directly for finer control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from ..mpistream.channel import StreamChannel, create_channel
from ..simmpi.comm import Comm
from .groups import DecouplingPlan, PlanError


@dataclass
class GroupContext:
    """Everything a group body needs."""

    plan: DecouplingPlan
    group: str                       # this rank's group name
    world: Comm                      # the full communicator
    comm: Comm                       # this group's communicator
    #: the channels of the flows this group produces or consumes, in
    #: declaration order; each is collective over its flow's members
    channels: Dict[str, StreamChannel] = field(default_factory=dict)

    @property
    def alpha(self) -> float:
        return self.plan.alpha(self.group)

    def channel(self, flow_name: str) -> StreamChannel:
        ch = self.channels.get(flow_name)
        if ch is None:
            raise PlanError(
                f"flow {flow_name!r} does not touch group {self.group!r}"
            )
        return ch


def run_decoupled(world: Comm, plan: DecouplingPlan,
                  bodies: Dict[str, Callable[[GroupContext], Generator]],
                  ) -> Generator[Any, Any, Any]:
    """SPMD main implementing the plan on ``world``.

    ``bodies`` maps group name -> generator function.  Every group must
    have a body.  Returns this rank's body return value.
    """
    if world.size != plan.total_procs:
        raise PlanError(
            f"plan sized for {plan.total_procs} processes, communicator "
            f"has {world.size}"
        )
    missing = [g for g in plan.groups if g not in bodies]
    if missing:
        raise PlanError(f"no body for group(s): {missing}")

    # Group membership is a pure function of the plan (groups occupy
    # contiguous, deterministic rank blocks), so the group communicator
    # is formed without an agreement round — the MPI_Comm_create_group
    # path rather than MPI_Comm_split.
    my_group = plan.group_of(world.rank)
    group_comm = world.group_from_ranks(
        list(plan.groups[my_group].ranks), name=f"{world.name}/{my_group}")

    # each flow's channel is collective over the flow's own members
    # (its two groups, formed the same communication-free way), in the
    # deterministic order flows were declared; other ranks skip it
    channels: Dict[str, StreamChannel] = {}
    for flow in plan.flows:
        if my_group not in (flow.src, flow.dst):
            continue
        flow_comm = world.group_from_ranks(
            plan.flow_ranks(flow.name), name=f"{world.name}/{flow.name}")
        channels[flow.name] = yield from create_channel(
            flow_comm,
            is_producer=(my_group == flow.src),
            is_consumer=(my_group == flow.dst),
        )

    ctx = GroupContext(plan=plan, group=my_group, world=world,
                       comm=group_comm, channels=channels)
    result = yield from bodies[my_group](ctx)
    return result


def conventional_baseline(world: Comm,
                          operations: Dict[str, Callable[[Comm], Generator]],
                          ) -> Generator[Any, Any, Dict[str, Any]]:
    """The staged reference execution: every rank runs every operation
    in order, with a barrier closing each stage (Fig. 3a).

    Returns ``{operation: value}`` for this rank — handy for
    conventional-vs-decoupled comparisons with identical kernels.
    """
    results: Dict[str, Any] = {}
    for name, op in operations.items():
        results[name] = yield from op(world)
        yield from world.barrier()
    return results
