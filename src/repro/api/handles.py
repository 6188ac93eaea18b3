"""Stage-side handles: what a stage body programs against.

A stage body is a generator function ``body(ctx)`` receiving a
:class:`StageContext`.  The context exposes this stage's group
communicator, the world communicator, and one handle per flow touching
the stage:

* :class:`ProducerHandle` — ``yield from handle.send(data)`` injects one
  element.  Used as a context manager (``with ctx.producer("f") as s:``)
  the handle is *closed* when the block exits: further sends raise
  :class:`~repro.api.errors.GraphError` and ``CompiledGraph.execute``
  flushes the in-flight window and terminates the stream automatically
  after the body returns — the ``MPIStream_Terminate`` /
  ``MPIStream_FreeChannel`` protocol cannot be forgotten.
* :class:`ConsumerHandle` — ``yield from handle.operate()`` services the
  flow until every producer terminated, applying the flow's operator
  (or a per-rank override) to each element on arrival.

Neither handle performs simulated communication outside ``yield from``
calls, so the with-statement itself is free: closing only flips local
state, and the actual flush/terminate runs in ``execute``'s epilogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from ..core.groups import DecouplingPlan
from ..mpistream.channel import StreamChannel
from ..mpistream.profiles import StreamProfile
from ..mpistream.stream import Stream
from ..simmpi.comm import Comm, ComputeCharge
from .errors import GraphError


@dataclass
class StageRecord:
    """What one rank of a compiled graph returns: the body's result plus
    per-flow stream statistics (merged into the :class:`~repro.api.
    report.Report`)."""

    stage: str
    result: Any
    profiles: Dict[str, StreamProfile] = field(default_factory=dict)


def operator_result(operator: Any) -> Any:
    """The value a defaulted consumer stage reports for its operator:
    ``operator.summary()`` when the operator offers one (e.g.
    :class:`~repro.mpistream.operators.RunningStats`), otherwise the
    operator object itself (e.g. a ``Collector`` whose ``items`` the
    caller inspects)."""
    summary = getattr(operator, "summary", None)
    if callable(summary):
        return summary()
    return operator


class ProducerHandle:
    """Producer side of one flow on this rank."""

    def __init__(self, flow_name: str, stream: Stream):
        self.flow_name = flow_name
        self._stream = stream
        self.closed = False
        self.terminated = False

    # -- context-manager protocol: scoping + can't-forget-terminate ----
    def __enter__(self) -> "ProducerHandle":
        if self.closed:
            raise GraphError(
                f"producer for flow {self.flow_name!r} already closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.closed = True
        return False

    # -- stream operations ---------------------------------------------
    def send(self, data: Any) -> Generator[Any, Any, None]:
        """Inject one element (``MPIStream_Isend``).

        Returns the stream's generator directly (``yield from`` treats
        both identically) — the extra delegation frame was measurable
        at per-element rates."""
        if self.closed or self.terminated:
            raise GraphError(
                f"send on closed producer for flow {self.flow_name!r}")
        return self._stream.isend(data)

    def terminate(self) -> Generator[Any, Any, None]:
        """Flush the in-flight window and end this producer's flow.

        Idempotent: ``execute``'s epilogue calls it for any producer the
        body did not terminate explicitly."""
        if self.terminated:
            return
        self.terminated = True
        self.closed = True
        yield from self._stream.terminate()

    @property
    def profile(self) -> StreamProfile:
        return self._stream.profile


class ConsumerHandle:
    """Consumer side of one flow on this rank."""

    def __init__(self, flow_name: str, stream: Stream,
                 operator: Optional[Callable] = None):
        self.flow_name = flow_name
        self._stream = stream
        self.operator = operator
        self.closed = False

    def __enter__(self) -> "ConsumerHandle":
        if self.closed:
            raise GraphError(
                f"consumer for flow {self.flow_name!r} already closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # mirror of ProducerHandle: leaving the with-block closes the
        # handle, so later operate/pending calls are caught as misuse
        self.closed = True
        return False

    def _bind(self, verb: str, operator: Optional[Callable]) -> Stream:
        """The stream, with ``operator`` (else the flow's) bound to it."""
        if self.closed:
            raise GraphError(
                f"{verb} on closed consumer for flow {self.flow_name!r}")
        op = operator if operator is not None else self.operator
        if op is None:
            raise GraphError(
                f"flow {self.flow_name!r} has no operator; declare one on "
                f"the flow or pass one to {verb}()")
        self.operator = op
        self._stream.operator = op
        return self._stream

    def operate(self, operator: Optional[Callable] = None
                ) -> Generator[Any, Any, StreamProfile]:
        """Service the flow until every producer terminated
        (``MPIStream_Operate``).  ``operator`` overrides the flow-level
        operator for this rank (e.g. a closure over body state)."""
        return self._bind("operate", operator).operate()

    def pending(self, operator: Optional[Callable] = None
                ) -> Generator[Any, Any, int]:
        """Drain only the elements already queued (non-blocking); lets a
        consumer interleave stream service with its own work."""
        return self._bind("pending", operator).operate_pending()

    @property
    def active_producers(self) -> int:
        return self._stream.active_producers

    def result(self) -> Any:
        return operator_result(self.operator)

    @property
    def profile(self) -> StreamProfile:
        return self._stream.profile


class StageContext:
    """Everything a stage body needs: its communicators, the plan, and
    one handle (over one channel) per flow the stage touches."""

    def __init__(self, stage: str, plan: DecouplingPlan, world: Comm,
                 comm: Comm, channels: Dict[str, StreamChannel],
                 handles: Dict[str, Any]):
        self.stage = stage
        self.plan = plan
        self.world = world            # the full (world) communicator
        self.comm = comm              # this stage's group communicator
        self._channels = channels
        self._handles = handles

    @property
    def alpha(self) -> float:
        """This stage's decoupled fraction (Eq. 4's alpha)."""
        return self.plan.alpha(self.stage)

    @property
    def time(self) -> float:
        return self.world.time

    def compute(self, seconds: float, label: str = "compute"
                ) -> ComputeCharge:
        """Charge compute time on this rank (sugar for ``comm.compute``)."""
        return self.comm.compute(seconds, label=label)

    # -- flow handles ---------------------------------------------------
    def _handle(self, flow_name: str) -> Any:
        h = self._handles.get(flow_name)
        if h is None:
            raise GraphError(
                f"flow {flow_name!r} does not touch stage {self.stage!r}")
        return h

    def producer(self, flow_name: str) -> ProducerHandle:
        h = self._handle(flow_name)
        if not isinstance(h, ProducerHandle):
            raise GraphError(
                f"stage {self.stage!r} is the consumer of flow "
                f"{flow_name!r}, not its producer")
        return h

    def consumer(self, flow_name: str) -> ConsumerHandle:
        h = self._handle(flow_name)
        if not isinstance(h, ConsumerHandle):
            raise GraphError(
                f"stage {self.stage!r} is the producer of flow "
                f"{flow_name!r}, not its consumer")
        return h

    def consume(self, flow_name: str, operator: Optional[Callable] = None
                ) -> Generator[Any, Any, StreamProfile]:
        """Sugar: ``yield from ctx.consume("f")`` operates the flow."""
        return self.consumer(flow_name).operate(operator)

    def channel(self, flow_name: str) -> StreamChannel:
        """The underlying stream channel (finer-control escape hatch)."""
        ch = self._channels.get(flow_name)
        if ch is None:
            raise GraphError(
                f"flow {flow_name!r} does not touch stage {self.stage!r}")
        return ch
